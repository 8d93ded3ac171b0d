package service

// The service-handler rung of the benchmark trajectory (`make bench-json`):
// one warm request through the handler, from the query parsers to the
// rendered body, with the engine answering from memory as a long-running
// uopsd does.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/uarch"
)

// serveBench is the one warm Skylake service the BenchmarkServe rounds
// share, built on first use.
var serveBench struct {
	once sync.Once
	svc  *Service
	eng  *engine.Engine
	err  error
}

// warmService returns a service over a store-backed engine that holds every
// Skylake record in memory: the first run measures the generation into the
// store, the second reads it back, and from then on no request reads a file
// or measures. The store's directory is removed once warm, so it does not
// outlive the process.
func warmService(b *testing.B) (*Service, *engine.Engine) {
	s := &serveBench
	s.once.Do(func() {
		dir, err := os.MkdirTemp("", "uopsd-bench-")
		if err != nil {
			s.err = err
			return
		}
		defer os.RemoveAll(dir)
		eng, err := engine.New(engine.Config{Workers: 2, CacheDir: dir})
		if err != nil {
			s.err = err
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{}); err != nil {
				s.err = err
				return
			}
		}
		s.svc, s.err = New(Config{Engine: eng})
		s.eng = eng
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.svc, s.eng
}

// BenchmarkServe times one warm request through ServeHTTP: a single
// variant, a 32-variant subset, and the whole generation as JSON and as
// XML.
func BenchmarkServe(b *testing.B) {
	svc, eng := warmService(b)
	names := uarch.Get(uarch.Skylake).InstrSet().Names()
	subset := make([]string, 32)
	for i := range subset {
		subset[i] = names[i*len(names)/len(subset)]
	}
	for _, tc := range []struct{ name, target string }{
		{"variant", "/v1/arch/skylake/variant/ADD_R64_R64"},
		{"subset-32", "/v1/arch/skylake?only=" + strings.Join(subset, ",")},
		{"whole-json", "/v1/arch/skylake"},
		{"whole-xml", "/v1/arch/skylake?format=xml"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			measured := eng.Stats().VariantsMeasured
			req := httptest.NewRequest("GET", tc.target, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s = %d: %s", tc.target, rec.Code, rec.Body.Bytes())
				}
			}
			b.StopTimer()
			if got := eng.Stats().VariantsMeasured; got != measured {
				b.Fatalf("GET %s measured %d variants; a warm request measures none", tc.target, got-measured)
			}
		})
	}
}
