package engine_test

// The flag tests live in the external test package: the fleet cases need an
// in-process uopsd worker, and the service package imports engine.

import (
	"flag"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/service"
)

// startWorker serves the default backend over HTTP, as a fleet worker.
func startWorker(t *testing.T) string {
	t.Helper()
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestFlags(t *testing.T) {
	worker := startWorker(t)
	// Nothing listens on port 1, so a handshake against it fails: a fleet
	// list that reaches Configure from here makes the case fail loudly.
	const deadFleet = "http://127.0.0.1:1"
	t.Cleanup(remote.Shutdown)
	for _, tc := range []struct {
		name    string
		durable bool
		env     string
		args    []string
		want    engine.Config
		err     string // substring of the Config error
		newErr  string // substring of the engine.New error
	}{{
		name: "values",
		args: []string{"-j", "3", "-cache", "dir", "-store-max-bytes", "2M",
			"-store-max-files", "7", "-backend", "pipesim"},
		want: engine.Config{Workers: 3, CacheDir: "dir", StoreMaxBytes: 2 << 20,
			StoreMaxFiles: 7, Backend: "pipesim"},
	}, {
		name: "one-shot defaults",
		want: engine.Config{Workers: core.DefaultWorkers()},
	}, {
		name:    "server defaults",
		durable: true,
		want:    engine.Config{Workers: core.DefaultWorkers(), StoreDurable: true},
	}, {
		name:    "durable opt-out",
		durable: true,
		args:    []string{"-store-durable=false", "-j", "0"},
		want:    engine.Config{},
	}, {
		name: "bad size",
		args: []string{"-store-max-bytes", "bogus"},
		err:  "-store-max-bytes",
	}, {
		name: "fleet contradicts backend",
		args: []string{"-fleet", deadFleet, "-backend", "pipesim"},
		err:  "contradicts",
	}, {
		name:   "remote without a fleet",
		args:   []string{"-backend", remote.BackendName},
		want:   engine.Config{Workers: core.DefaultWorkers(), Backend: remote.BackendName},
		newErr: "not configured",
	}, {
		name: "fleet from the environment",
		env:  worker,
		want: engine.Config{Workers: core.DefaultWorkers(), Backend: remote.BackendName},
	}, {
		name: "fleet flag overrides the environment",
		env:  deadFleet,
		args: []string{"-fleet", worker, "-backend", remote.BackendName},
		want: engine.Config{Workers: core.DefaultWorkers(), Backend: remote.BackendName},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			remote.Shutdown()
			t.Setenv(remote.EnvFleet, tc.env)
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			ef := engine.RegisterFlags(fs, tc.durable)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			cfg, err := ef.Config()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Config error = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Errorf("Config = %+v, want %+v", cfg, tc.want)
			}
			eng, err := engine.New(cfg)
			if tc.newErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.newErr) {
					t.Fatalf("New error = %v, want one containing %q", err, tc.newErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			wantWorkers := cfg.Workers
			if wantWorkers < 1 {
				wantWorkers = core.DefaultWorkers() // -j below 1: one worker per CPU
			}
			if eng.Workers() != wantWorkers {
				t.Errorf("Workers() = %d for -j %d, want %d", eng.Workers(), cfg.Workers, wantWorkers)
			}
			if cfg.Backend == remote.BackendName && !strings.HasPrefix(eng.Backend().Version(), "fleet(") {
				t.Errorf("remote backend Version = %q, want a fleet fingerprint", eng.Backend().Version())
			}
		})
	}
}
