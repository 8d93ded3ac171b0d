package engine

import (
	"flag"
	"fmt"
	"os"

	"uopsinfo/internal/core"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
)

// Flags holds the engine settings every command takes from its command
// line: the worker budget, the persistent store and the measurement
// backend. RegisterFlags defines them; Config resolves the parsed values.
type Flags struct {
	workers  int
	cacheDir string
	durable  bool
	backend  string
	fleet    string
}

// RegisterFlags defines the shared engine flags -j, -cache, -store-durable,
// -backend and -fleet on fs. durable is the -store-durable default: a
// long-running server's store should survive power cycles, while a one-shot
// run loses at most one re-measurement per crash-lost entry.
func RegisterFlags(fs *flag.FlagSet, durable bool) *Flags {
	f := new(Flags)
	fs.IntVar(&f.workers, "j", core.DefaultWorkers(), "total number of parallel workers (1 = fully sequential; below 1 = one per CPU)")
	fs.StringVar(&f.cacheDir, "cache", "", "directory of the persistent store: blocking sets and per-variant measurements are reused across runs and shared by every command pointed at it")
	fs.BoolVar(&f.durable, "store-durable", durable, "fsync store writes before publishing them, so completed saves survive a crash")
	fs.StringVar(&f.backend, "backend", "", `measurement backend to run on (default: "`+measure.DefaultBackend+`")`)
	fs.StringVar(&f.fleet, "fleet", "", "comma-separated uopsd worker URLs to measure on (selects -backend remote; default: $"+remote.EnvFleet+")")
	return f
}

// Config resolves the parsed flags into an engine configuration. An empty
// -fleet falls back to $UOPS_FLEET; a fleet list configures the remote
// backend (performing its handshake) and selects it, and naming a different
// -backend next to a fleet is an error. Forcing -backend remote without a
// fleet is refused by New, which checks that the backend is ready.
func (f *Flags) Config() (Config, error) {
	cfg := Config{
		Workers: f.workers, CacheDir: f.cacheDir, Backend: f.backend, StoreDurable: f.durable,
	}
	fleet := f.fleet
	if fleet == "" {
		fleet = os.Getenv(remote.EnvFleet)
	}
	if fleet == "" {
		return cfg, nil
	}
	if f.backend != "" && f.backend != remote.BackendName {
		return Config{}, fmt.Errorf("-fleet selects backend %q, which contradicts -backend %q",
			remote.BackendName, f.backend)
	}
	if err := remote.Configure(remote.Options{Workers: remote.SplitList(fleet)}); err != nil {
		return Config{}, err
	}
	cfg.Backend = remote.BackendName
	return cfg, nil
}
