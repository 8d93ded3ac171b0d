package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"uopsinfo/internal/uarch"
)

// TestCharacterizeCancellation checks the Options.Context contract on both
// scheduler paths: a context cancelled mid-run stops the run with an error
// that still matches context.Canceled, instead of measuring on.
func TestCharacterizeCancellation(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	only := sampleNames(c, 100)
	if len(only) < 5 {
		t.Fatalf("sample too small: %d variants", len(only))
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		measured := 0
		_, err := c.CharacterizeAll(Options{
			Only:    only,
			Workers: workers,
			Context: ctx,
			Progress: func(done, total int, name string) {
				mu.Lock()
				measured = done
				mu.Unlock()
				cancel() // cancel after the first completed variant
			},
		})
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned no error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error %v does not match context.Canceled", workers, err)
		}
		mu.Lock()
		got := measured
		mu.Unlock()
		if got >= len(only) {
			t.Errorf("workers=%d: all %d variants measured despite cancellation", workers, got)
		}
		cancel()
	}
}

// TestCharacterizePreCancelled pins the fast path: an already-cancelled
// context fails before anything is measured.
func TestCharacterizePreCancelled(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.CharacterizeAll(Options{
		Only:    []string{"ADD_R64_R64"},
		Context: ctx,
		Progress: func(done, total int, name string) {
			t.Error("a pre-cancelled run measured a variant")
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestBlockingDiscoveryCancellation checks cancellation between blocking
// candidates, for both worker counts, on a fresh characterizer (the shared
// one already has its blocking set).
func TestBlockingDiscoveryCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := NewForArch(uarch.Get(uarch.SandyBridge))
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		var mu sync.Mutex
		_, err := c.DiscoverBlocking(Options{
			Workers: workers,
			Context: ctx,
			BlockingProgress: func(done, total int, name string) {
				mu.Lock()
				seen = done
				mu.Unlock()
				cancel()
			},
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled discovery returned %v", workers, err)
		}
		mu.Lock()
		got := seen
		mu.Unlock()
		if got == 0 {
			t.Errorf("workers=%d: cancellation fired before any candidate", workers)
		}
		cancel()
	}
}
