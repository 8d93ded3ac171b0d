package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uopsinfo/internal/engine"
)

func TestFanout(t *testing.T) {
	shares := make([]int, 5)
	if err := engine.Fanout(8, 5, func(i, workers int) error {
		shares[i] = workers
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 2, 2, 1, 1}; !reflect.DeepEqual(shares, want) {
		t.Errorf("Fanout(8, 5) handed out %v workers, want %v", shares, want)
	}

	// Every part blocks until min(budget, parts) parts run at once, and for
	// a grace period after that in which a part beyond the limit would start,
	// so the limit is both reached and, by the high-water mark, never
	// exceeded.
	for _, tc := range []struct{ budget, parts, limit int }{
		{8, 5, 5}, {2, 6, 2}, {3, 3, 3}, {0, 4, 1}, {-3, 2, 1},
	} {
		var running, peak, ran atomic.Int64
		full := make(chan struct{})
		var once sync.Once
		err := engine.Fanout(tc.budget, tc.parts, func(i, workers int) error {
			ran.Add(1)
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p; p = peak.Load() {
				if peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n == int64(tc.limit) {
				once.Do(func() { time.AfterFunc(20*time.Millisecond, func() { close(full) }) })
			}
			select {
			case <-full:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("part %d: %d parts never ran at once", i, tc.limit)
			}
		})
		if err != nil {
			t.Errorf("Fanout(%d, %d): %v", tc.budget, tc.parts, err)
		}
		if got := peak.Load(); got > int64(tc.limit) {
			t.Errorf("Fanout(%d, %d) ran %d parts at once, want at most %d", tc.budget, tc.parts, got, tc.limit)
		}
		if got := ran.Load(); got != int64(tc.parts) {
			t.Errorf("Fanout(%d, %d) ran %d parts", tc.budget, tc.parts, got)
		}
	}

	// A failing part stops no other part; all errors come back joined.
	errOne, errThree := errors.New("part 1 failed"), errors.New("part 3 failed")
	var ran atomic.Int64
	err := engine.Fanout(2, 4, func(i, _ int) error {
		ran.Add(1)
		switch i {
		case 1:
			return errOne
		case 3:
			return errThree
		}
		return nil
	})
	if !errors.Is(err, errOne) || !errors.Is(err, errThree) {
		t.Errorf("Fanout error = %v, want both part errors joined", err)
	}
	if ran.Load() != 4 {
		t.Errorf("Fanout ran %d of 4 parts after a failure", ran.Load())
	}
}
