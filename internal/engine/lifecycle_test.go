package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/store"
	"uopsinfo/internal/uarch"
)

// TestRunDigestIdentity pins the coalescing-key/ETag contract: equal run
// parameters yield equal digests, and any parameter that changes the result
// body changes the digest.
func TestRunDigestIdentity(t *testing.T) {
	e := mustNew(t, Config{})
	base := RunOptions{Only: testOnly}
	d1, err := e.RunDigest(uarch.Skylake, base)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.RunDigest(uarch.Skylake, RunOptions{Only: testOnly})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("equal run parameters produced different digests")
	}
	if d1.String() == "" {
		t.Error("digest renders empty")
	}
	for name, opts := range map[string]RunOptions{
		"different variant set": {Only: testOnly[:2]},
		"quick mode":            {Only: testOnly, SkipLatency: true},
	} {
		d, err := e.RunDigest(uarch.Skylake, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d == d1 {
			t.Errorf("%s did not change the digest", name)
		}
	}
	d3, err := e.RunDigest(uarch.SandyBridge, base)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Error("different generation did not change the digest")
	}
	if _, err := e.RunDigest(uarch.Generation(99), base); err == nil {
		t.Error("out-of-range generation did not fail")
	}
}

// TestStoreIdentityGolden pins absolute identities under the default
// configuration: one run digest (the service's ETag) and one per-variant
// filename. TestRunDigestIdentity only checks identities relative to each
// other, so a store.Version bump or an edit of a scope string — either of
// which orphans every deployed store and ETag — would pass it silently.
// Changing the default backend's version or the Skylake variant set moves
// these values too, deliberately.
func TestStoreIdentityGolden(t *testing.T) {
	e := mustNew(t, Config{})
	const (
		wantDigest = "9ceaeb7efaa721c069189f1c168f904e055086b22a6407d0c05d7b02c991ba6f"
		wantFile   = "variant-10a915ccfe47c31b-aec0dffd1680d283.json"
	)
	d, err := e.RunDigest(uarch.Skylake, RunOptions{Only: []string{"ADD_R64_R64"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != wantDigest {
		t.Errorf("Skylake ADD_R64_R64 run digest = %s, want %s", got, wantDigest)
	}
	vdig := e.key(uarch.Get(uarch.Skylake), RunOptions{}.variantScope()).Digest()
	if got := vdig.VariantFilename("ADD_R64_R64"); got != wantFile {
		t.Errorf("Skylake ADD_R64_R64 variant file = %s, want %s", got, wantFile)
	}
}

// TestVariantDigestCached checks that the cached variant-tier digest is the
// digest of a fresh key, for every generation and both variant scopes, on
// the first call and on a cached one, and that it is cached per generation
// and scope.
func TestVariantDigestCached(t *testing.T) {
	e := mustNew(t, Config{})
	seen := map[store.Digest]bool{}
	for _, arch := range uarch.All() {
		for _, skipLatency := range []bool{false, true} {
			scope := RunOptions{SkipLatency: skipLatency}.variantScope()
			want := e.key(arch, scope).Digest()
			for call := 0; call < 2; call++ {
				if got := e.variantDigest(arch, scope); got != want {
					t.Fatalf("%s %q call %d: variant digest %s, want %s", arch.Name(), scope, call, got, want)
				}
			}
			seen[want] = true
		}
	}
	if n := 2 * len(uarch.All()); len(e.vdigs) != n || len(seen) != n {
		t.Errorf("%d cached digests, %d distinct, want %d of each", len(e.vdigs), len(seen), n)
	}
}

// TestDrainIdle checks Drain returns immediately when nothing is in flight.
func TestDrainIdle(t *testing.T) {
	e := mustNew(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain with no flights: %v", err)
	}
}

// TestBaseContextQuiescesDetachedRun is the shutdown regression: a run keeps
// going when a requester goes away — cancelling the engine's base context
// must abort it, so Drain returns promptly and the requester still waiting
// gets context.Canceled, and later admissions fail fast.
func TestBaseContextQuiescesDetachedRun(t *testing.T) {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	released := make(chan struct{})
	var gate sync.Once
	e := mustNew(t, Config{
		Workers:     2,
		BaseContext: baseCtx,
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	opts := RunOptions{Only: testOnly}

	// The request that starts the run waits for it on a context that is never
	// cancelled; the run itself executes on its own goroutine.
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts)
		leaderDone <- err
	}()
	if !waitForStat(t, e, "the run to start", func(s Stats) bool { return s.Runs == 1 }) {
		close(released)
		t.FailNow()
	}

	// A coalesced waiter attaches and leaves again; the run keeps going.
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArchContext(waiterCtx, uarch.Skylake, opts)
		waiterDone <- err
	}()
	if !waitForStat(t, e, "the waiter to attach", func(s Stats) bool { return s.CoalescedWaiters == 1 }) {
		close(released)
		t.FailNow()
	}
	waiterCancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	// Shutdown: cancel the run lifetime, release the gate, drain. The gated
	// run must abort instead of measuring on.
	baseCancel()
	close(released)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run returned %v, want context.Canceled", err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(drainCtx); err != nil {
		t.Fatalf("engine did not quiesce after base cancel: %v", err)
	}
	if st := e.Stats(); st.VariantsMeasured != 0 {
		t.Errorf("aborted run still measured %d variants", st.VariantsMeasured)
	}

	// New work is refused at admission once the base context is gone.
	if _, err := e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("post-shutdown admission returned %v, want context.Canceled", err)
	}
}
