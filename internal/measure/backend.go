package measure

// This file defines the measurement-backend registry. The characterization
// algorithms only need a substrate that executes instruction blocks and
// reports cycle and µop counters — the Runner interface — so the execution
// substrate is pluggable: the cycle-level pipesim simulator is the default,
// and alternative substrates (a remote measurement service, a
// hardware-backed kernel module, a different simulator) register themselves
// under a name and slot in behind the same measurement protocol.

import (
	"fmt"
	"sort"
	"sync"

	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Backend is a named factory for execution substrates. Implementations must
// be safe for concurrent use: NewRunner can be called from multiple
// goroutines (the engine builds one runner per generation, concurrently
// during prewarming).
type Backend interface {
	// Name is the registry name of the backend (e.g. "pipesim"), as selected
	// by the -backend flag of the CLI tools.
	Name() string
	// Version is the behavioural revision of the substrate. It is folded
	// into persistent cache keys together with Name, so results measured on
	// different backends — or different revisions of the same backend —
	// never collide.
	Version() string
	// NewRunner returns a fresh, independent execution substrate for a
	// microarchitecture generation. Runners that additionally implement
	// RunnerForker (or are a *pipesim.Machine) support the sharded parallel
	// scheduler; others fall back to sequential characterization.
	NewRunner(gen uarch.Generation) (Runner, error)
}

// DefaultBackend is the name of the backend used when none is configured.
const DefaultBackend = "pipesim"

// Fingerprint is a backend's identity as name@version: the token folded into
// every persistent cache key, so results from different backends, or
// different revisions of one backend, never share store entries.
func Fingerprint(b Backend) string { return b.Name() + "@" + b.Version() }

var (
	backendMu sync.RWMutex
	backends  = make(map[string]Backend)
)

// Register makes a backend available under its name. It panics if the name
// is empty or already registered (like database/sql.Register, registration
// is an init-time programming act, not a runtime condition).
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("measure: Register with empty backend name")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("measure: Register called twice for backend %q", name))
	}
	backends[name] = b
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backends[name]
	return b, ok
}

// Names returns the sorted names of all registered backends.
func Names() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pipesimBackend adapts the cycle-level simulator to the Backend interface.
// It is the default substrate: deterministic, self-contained, forkable.
type pipesimBackend struct{}

func (pipesimBackend) Name() string    { return "pipesim" }
func (pipesimBackend) Version() string { return pipesim.Version }
func (pipesimBackend) NewRunner(gen uarch.Generation) (Runner, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, err
	}
	return pipesim.New(arch), nil
}

func init() { Register(pipesimBackend{}) }
