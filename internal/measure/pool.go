package measure

import "sync"

// PoolStats reports how effective a Pool has been at amortizing per-run
// setup across measurements.
type PoolStats struct {
	// Forked counts harnesses created by forking the parent (pool misses).
	Forked int64
	// Reused counts Get calls served from the idle list: a warm
	// machine/harness pair — populated simulator arenas and rename
	// templates — picked up by a new shard of work.
	Reused int64
}

// Add returns the element-wise sum of two stat snapshots.
func (s PoolStats) Add(o PoolStats) PoolStats {
	s.Forked += o.Forked
	s.Reused += o.Reused
	return s
}

// Pool keeps forked harnesses — and with them their warm simulator machines —
// alive between bursts of parallel work, so batching N variant shards through
// the pool reuses the machines' arenas and rename templates instead of
// rebuilding them for every run.
//
// A Pool is safe for concurrent use. The harnesses it hands out are not:
// each Get transfers exclusive ownership to the caller until Put returns it.
type Pool struct {
	parent *Harness

	mu    sync.Mutex
	idle  []*Harness
	stats PoolStats
}

// NewPool returns an empty pool that forks the given parent harness on
// demand. The parent itself is never handed out.
func NewPool(parent *Harness) *Pool { return &Pool{parent: parent} }

// Get returns an exclusively-owned harness: a warm one from the idle list if
// available (reused=true), otherwise a fresh fork of the parent. The caller
// must return it with Put when done; a harness that is never Put back is
// simply garbage collected.
func (p *Pool) Get() (h *Harness, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		h = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.stats.Reused++
		p.mu.Unlock()
		return h, true, nil
	}
	p.mu.Unlock()
	h, err = p.parent.Fork()
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	p.stats.Forked++
	p.mu.Unlock()
	return h, false, nil
}

// Put parks a harness obtained from Get for reuse. The caller must not use
// the harness afterwards.
func (p *Pool) Put(h *Harness) {
	if h == nil {
		return
	}
	p.mu.Lock()
	p.idle = append(p.idle, h)
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's effectiveness counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Idle returns how many harnesses are currently parked in the pool.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
