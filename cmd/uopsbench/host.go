package main

// The host gauge. On the shared VMs this benchmark runs on, the speed of a
// vCPU swings by up to 2x within seconds, and drifts by 20-40 % over
// minutes, as other tenants load the physical cores and caches under it; CPU
// time does not hide that, as it hides time the hypervisor steals (README,
// "Why normalized CPU time"). The gauge runs a fixed reference workload,
// owned by the benchmark and independent of the program, in short rounds
// from its own thread for as long as a run lasts, and times each round by
// that thread's CPU clock. The end-to-end times are scaled by refNominal
// over the mean round, which cancels most of the host's swings. The
// reference allocates nothing once built, so the program's heap and
// garbage collection do not change what it costs, and the workloads' CPU
// times leave out the gauge's thread.

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is the CPU time of one reference round the end-to-end times
// are scaled to: about its mean on a quiet 2-vCPU VM. Only the ratio of two
// runs' normalized times matters, so its exact value does not.
const refNominal = 20 * time.Millisecond

// refEvery is how often the gauge starts a round: a round every quarter
// second keeps it near 8 % of one vCPU.
const refEvery = 250 * time.Millisecond

// refInput is the reference workload's input and scratch space: about 3 MB,
// so the reference reaches past the core's own caches as the program does.
type refInput struct {
	table  []uint64 // 256 KB, for the integer kernel
	floats []float64
	sorted []float64 // scratch for the sort kernel
	keys   map[uint64]uint64
	text   []byte // scratch for the formatting kernel
}

func newRefInput() *refInput {
	rng := rand.New(rand.NewSource(1))
	d := &refInput{
		table:  make([]uint64, 1<<15),
		floats: make([]float64, 1<<15),
		sorted: make([]float64, 1<<15),
		keys:   make(map[uint64]uint64, 1<<16),
		text:   make([]byte, 0, 64),
	}
	for i := range d.floats {
		d.floats[i] = rng.Float64()
	}
	for i := uint64(0); i < 1<<16; i++ {
		d.keys[i*0x9e3779b97f4a7c15] = i
	}
	return d
}

// round runs the reference workload once: integer mixing in a table the
// core's cache holds, sorting 256 KB of floats, hash-map lookups over a map
// of 64 Ki entries, and number formatting. It returns a value computed from
// all of it, so that none of the work can be optimized away.
func (d *refInput) round() uint64 {
	x := uint64(1)
	for i := 0; i < 750_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d.table[x&(1<<15-1)] += x
	}
	copy(d.sorted, d.floats)
	slices.Sort(d.sorted)
	sum := x + uint64(d.sorted[0]*1e9)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += d.keys[(x&(1<<16-1))*0x9e3779b97f4a7c15]
	}
	for i := 0; i < 50_000; i++ {
		d.text = strconv.AppendFloat(d.text[:0], d.floats[i&(1<<15-1)]*1e6, 'g', -1, 64)
		sum += uint64(len(d.text))
	}
	return sum
}

// gauge runs reference rounds on a thread of its own until closed.
type gauge struct {
	tid  int64 // the gauge thread's id
	stop chan struct{}
	done sync.WaitGroup

	mu     sync.Mutex
	rounds []float64 // CPU seconds per round
	sink   uint64
}

// startGauge builds the reference input and starts the gauge's thread. It
// returns once that thread has run its first round.
func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{})}
	d := newRefInput()
	tid := make(chan int64)
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for started := false; ; started = true {
			c0 := threadCPUTime(0)
			sum := d.round()
			c := threadCPUTime(0) - c0
			g.mu.Lock()
			g.rounds = append(g.rounds, c.Seconds())
			g.sink += sum
			g.mu.Unlock()
			if !started {
				tid <- int64(syscall.Gettid())
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	g.tid = <-tid
	return g
}

// close stops the gauge's thread and waits for it to end.
func (g *gauge) close() {
	close(g.stop)
	g.done.Wait()
}

// mark returns how many rounds the gauge has timed so far.
func (g *gauge) mark() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.rounds)
}

// meanRound is the mean CPU time of the rounds timed since mark (of the
// latest round if none has been since), and how many that is.
func (g *gauge) meanRound(mark int) (time.Duration, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rounds := g.rounds[min(mark, len(g.rounds)-1):]
	var sum float64
	for _, r := range rounds {
		sum += r
	}
	return time.Duration(sum / float64(len(rounds)) * float64(time.Second)), len(rounds)
}

// scale is the factor that converts CPU time measured since mark to the
// reference host speed: refNominal over the mean round since then.
func (g *gauge) scale(mark int) float64 {
	mean, _ := g.meanRound(mark)
	return ratio(float64(refNominal), float64(mean))
}

// cpuTime is the CPU time the process has used so far, over all its threads
// but the gauge's. Time the hypervisor steals from the VM is not part of it.
func (e *env) cpuTime() time.Duration {
	t := clockTime(clockProcessCPUTime)
	if e.gauge != nil {
		t -= threadCPUTime(e.gauge.tid)
	}
	return t
}

// Linux clock ids: the calling process's and thread's CPU clocks, and the
// encoding of another thread's CPU clock (CPUCLOCK_SCHED | PERTHREAD).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// threadCPUTime is the CPU time of thread tid so far, or of the calling
// thread for tid 0.
func threadCPUTime(tid int64) time.Duration {
	if tid == 0 {
		return clockTime(clockThreadCPUTime)
	}
	return clockTime(^tid<<3 | 6)
}

func clockTime(clock int64) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
