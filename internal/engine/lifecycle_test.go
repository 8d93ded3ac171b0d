package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/core"
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
		"quick mode":            {Only: testOnly, SkipPortUsage: true, SkipThroughput: true},
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

// TestDrainIdle checks Drain returns immediately when nothing is in flight.
func TestDrainIdle(t *testing.T) {
	e := mustNew(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain with no flights: %v", err)
	}
}

// TestFlightProgressPhases observes a gated run from the outside: during
// blocking discovery FlightProgress reports the "blocking" phase (with the
// shared per-generation discovery counters), and once the run completes the
// flight is gone.
func TestFlightProgressPhases(t *testing.T) {
	released := make(chan struct{})
	var gate sync.Once
	e := mustNew(t, Config{
		Workers: 2,
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	opts := RunOptions{Only: testOnly}
	dig, err := e.RunDigest(uarch.Skylake, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.FlightProgress(dig); ok {
		t.Fatal("a flight exists before any run started")
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts)
		done <- err
	}()
	if !waitForStat(t, e, "the run to start", func(s Stats) bool { return s.Runs == 1 }) {
		close(released)
		t.FailNow()
	}
	// The gate holds the run inside its first blocking-progress callback, so
	// the flight stays observable in its blocking phase until we release it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p, ok := e.FlightProgress(dig)
		if !ok {
			close(released)
			t.Fatal("running flight not observable by digest")
		}
		if p.Phase == "blocking" && p.BlockingDone >= 1 {
			if p.BlockingTotal <= 0 {
				t.Errorf("blocking phase reports %d/%d candidates", p.BlockingDone, p.BlockingTotal)
			}
			break
		}
		if time.Now().After(deadline) {
			close(released)
			t.Fatalf("flight never reported blocking-discovery progress (at %+v)", p)
		}
		time.Sleep(time.Millisecond)
	}
	close(released)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := e.FlightProgress(dig); ok {
		t.Error("flight still observable after the run completed")
	}
}

// TestFlightRecordsStream streams a live run through FlightRecords and checks
// the observer protocol: every measured variant shows up exactly once, the
// changed channel fires on completion, and a finished run reports ok=false.
func TestFlightRecordsStream(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	// The run blocks after its first measured variant until the observer has
	// streamed it, so at least one record is deterministically seen live.
	sawFirst := make(chan struct{})
	opts := RunOptions{Only: testOnly, Progress: func(done, total int, name string) {
		if done == 1 {
			<-sawFirst
		}
	}}
	dig, err := e.RunDigest(uarch.Skylake, RunOptions{Only: testOnly})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *core.ArchResult
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		res, err := e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts)
		runDone <- outcome{res, err}
	}()

	// The documented observer protocol: drain, advance, wait on changed; when
	// the flight is gone (ok == false) fall back to the completed result for
	// any records that landed after the last drain.
	var release sync.Once
	seen := map[string]int{}
	from := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, changed, ok := e.FlightRecords(dig, from)
		if !ok {
			if from == 0 && time.Now().Before(deadline) {
				// The flight has not started yet; re-probe.
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
		for _, r := range recs {
			if r.Record == nil {
				t.Errorf("streamed record %s is nil", r.Name)
			}
			seen[r.Name]++
		}
		from += len(recs)
		if from >= 1 {
			release.Do(func() { close(sawFirst) })
		}
		select {
		case <-changed:
		case <-time.After(30 * time.Second):
			t.Fatalf("stream stalled after %d records", from)
		}
	}
	release.Do(func() { close(sawFirst) })
	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("variant %s streamed %d times", name, n)
		}
		if out.res.Results[name] == nil {
			t.Errorf("streamed variant %s is not in the final result", name)
		}
	}
	replayed := 0
	for _, name := range out.res.Names() {
		if seen[name] == 0 {
			replayed++
		}
	}
	if len(seen)+replayed != len(testOnly) {
		t.Errorf("streamed %d + replayed %d variants, want %d total", len(seen), replayed, len(testOnly))
	}
	if len(seen) == 0 {
		t.Error("no variant was streamed live; everything fell through to replay")
	}
}

// TestBaseContextQuiescesDetachedRun is the shutdown regression: a coalesced
// run whose only waiter went away keeps running detached — cancelling the
// engine's base context must abort it so Drain returns promptly, and later
// admissions fail fast.
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

	// The leader executes the run inline; its goroutine stands in for an HTTP
	// handler whose client has already hung up.
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
