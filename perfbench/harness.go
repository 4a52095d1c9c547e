package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

const (
	// deepDepth is the number of receives left posted, on a Dup'd
	// communicator no message targets, during a deep-queue phase.
	deepDepth = 4096
	tagDeep   = 999
)

// tally counts verified operations and the ones that failed or did not
// verify; ranks share one.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) check(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

// phaseSet holds rank 0's samples of one kind of round (traced or not).
type phaseSet struct {
	base, deep, bulk []float64 // µs per operation
	solve            []float64 // seconds per base phase
	ops              int64     // base-phase operations, for allocs_per_op
	allocs           uint64    // heap allocations during base phases
}

// memMeter reads the process-wide allocation count and heap size from
// runtime/metrics, which, unlike ReadMemStats, does not stop the world.
type memMeter struct {
	s    []metrics.Sample
	peak uint64
}

func newMemMeter() *memMeter {
	return &memMeter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// read returns the cumulative allocation count and records the heap
// size towards the peak.
func (m *memMeter) read() uint64 {
	metrics.Read(m.s)
	if h := m.s[1].Value.Uint64(); h > m.peak {
		m.peak = h
	}
	return m.s[0].Value.Uint64()
}

// runState is what one run of a workload accumulates over its rounds.
// Only rank 0 writes the samples; the tally and the per-rank slots are
// safe to fill from every rank.
type runState struct {
	traced bool
	tally  tally
	mem    *memMeter
	sets   [2]phaseSet // [0] untraced rounds, [1] traced rounds
	// bulkBytes is the payload one bulk sample moves between the ranks.
	bulkBytes float64
	setup     []float64 // bring-up of each round's job, seconds
	heap      []float64 // peak heap bytes during each round's timed loops

	mu    sync.Mutex
	pv    map[string]int64 // pvar deltas over traced rounds, all ranks
	pool  transport.PoolSnapshot
	spans [np]*tracer
}

func newRunState(traced bool) *runState {
	j := &runState{traced: traced, mem: newMemMeter(), pv: map[string]int64{}}
	if traced {
		for i := range j.spans {
			j.spans[i] = newTracer(i)
		}
	}
	return j
}

// roundCtx is what one rank's round sees: whether the round is traced
// (and so the tracer to record into), and where rank 0 files samples.
type roundCtx struct {
	tr     *tracer
	set    *phaseSet
	record bool // on rank 0, after the warm-up round: samples are filed
}

// untraced is rc without its tracer: spans cover only the base phase,
// so their medians are not mixed with deep-queue operations.
func (rc roundCtx) untraced() roundCtx {
	rc.tr = nil
	return rc
}

// timed runs fn n times. On the recording rank it files each duration,
// in µs divided by div, in out and counts allocations around the loop;
// after, when non-nil, runs untimed after each operation.
func (j *runState) timed(rc roundCtx, n int, div float64, out *[]float64, fn, after func(i int) error) error {
	if !rc.record {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			if after != nil {
				if err := after(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	a0 := j.mem.read()
	last := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return err
		}
		t1 := time.Now()
		*out = append(*out, float64(t1.Sub(t0).Nanoseconds())/1e3/div)
		if after != nil {
			if err := after(i); err != nil {
				return err
			}
		}
		// Sample the heap every 100 µs or so, between operations.
		if t1.Sub(last) > 100*time.Microsecond {
			j.mem.read()
			last = t1
		}
	}
	if out == &rc.set.base {
		rc.set.allocs += j.mem.read() - a0
		rc.set.ops += int64(n)
	}
	return nil
}

// rounds brings up one job per round, np ranks over opt's device, and
// runs body in it, until d has passed. A round's bring-up, from the
// RunWith call until every rank is past its first Barrier, is one
// setup_s sample. Each job starts afresh because the goroutine scheduler
// settles into a different regime per job: over loopback TCP the share
// of fast round trips ranged from 0.2 to 0.6 between consecutive jobs of
// one process, so a run must sample many jobs, not one long one.
//
// Round 0 is a warm-up whose samples are discarded; rounds 1 and 2 always
// run. In a traced run odd rounds are traced and even ones not, so the
// two interleave in time.
func (j *runState) rounds(opt mpi.RunOptions, d time.Duration, body func(env *mpi.Env, rc roundCtx) error) error {
	var deadline time.Time
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		if r == 1 {
			deadline = time.Now().Add(d)
		}
		traced := j.traced && r%2 == 1
		var mu sync.Mutex
		var up time.Duration
		t0 := time.Now()
		err := mpi.RunWith(opt, func(env *mpi.Env) error {
			if err := env.CommWorld().Barrier(); err != nil {
				return err
			}
			since := time.Since(t0)
			mu.Lock()
			up = max(up, since)
			mu.Unlock()
			rank := env.Rank()
			rc := roundCtx{set: &j.sets[0], record: r > 0 && rank == 0}
			if traced {
				rc.tr, rc.set = j.spans[rank], &j.sets[1]
				defer j.pvarWindow(env)()
			}
			return body(env, rc)
		})
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if r > 0 {
			j.setup = append(j.setup, up.Seconds())
			j.heap = append(j.heap, float64(j.mem.peak))
		}
		j.mem.peak = 0
	}
	return nil
}

// pvarWindow snapshots the rank's performance variables (and, on rank
// 0, the process-wide frame pool) and returns a function that adds the
// change since then to the run's totals.
func (j *runState) pvarWindow(env *mpi.Env) func() {
	before := map[string]int64{}
	for _, v := range env.PerfVars() {
		before[v.Name] = v.Value
	}
	p0 := transport.PoolStats()
	return func() {
		p1 := transport.PoolStats()
		j.mu.Lock()
		defer j.mu.Unlock()
		for _, v := range env.PerfVars() {
			j.pv[v.Name] += v.Value - before[v.Name]
		}
		if env.Rank() == 0 {
			j.pool.Gets += p1.Gets - p0.Gets
			j.pool.Hits += p1.Hits - p0.Hits
		}
	}
}

// withDeepQueue runs fn while deepDepth receives sit posted on a Dup of
// world that no message targets, so every arrival on world is matched
// past them; it cancels them afterwards and checks each cancelled.
func withDeepQueue(world *mpi.Intracomm, fn func() error) error {
	dup, err := world.Dup()
	if err != nil {
		return err
	}
	buf := any(make([]byte, 1))
	reqs := make([]*mpi.Request, 0, deepDepth)
	for i := 0; i < deepDepth; i++ {
		r, err := dup.IrecvInto(buf, 0, 1, mpi.BYTE, 1-world.Rank(), tagDeep)
		if err != nil {
			return fmt.Errorf("posting deep-queue receive %d: %w", i, err)
		}
		reqs = append(reqs, r)
	}
	if err := world.Barrier(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	for i, r := range reqs {
		if err := r.Cancel(); err != nil {
			return fmt.Errorf("cancelling deep-queue receive %d: %w", i, err)
		}
		st, err := r.Wait()
		if err != nil {
			return fmt.Errorf("waiting for cancelled receive %d: %w", i, err)
		}
		if !st.TestCancelled() {
			return fmt.Errorf("deep-queue receive %d completed instead of cancelling", i)
		}
	}
	return dup.Free()
}

// quantile returns the q-quantile of xs (sorting xs in place), linearly
// interpolated between the nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// endToEnd reports the end-to-end metrics of an untraced run.
func (j *runState) endToEnd() (*report, error) {
	s := &j.sets[0]
	if len(s.base) == 0 || len(s.deep) == 0 || len(s.solve) == 0 || len(j.setup) == 0 {
		return nil, fmt.Errorf("no measured rounds")
	}
	// Workloads without a separate bulk phase move their payload in the
	// base operation itself.
	bulk := s.bulk
	if len(bulk) == 0 {
		bulk = s.base
	}
	r := newReport()
	r.attempted, r.failed = j.tally.attempted.Load(), j.tally.failed.Load()
	r.add("setup_s", "s", quantile(j.setup, 0.5))
	// The median is printed but not reported: over loopback TCP the
	// one-way latency has a fast (8-12 µs) and a slow (22-25 µs) mode,
	// and the share of the fast one drifts with the host from minute to
	// minute, moving the median between 12 and 20 µs while p90 stays
	// within a few percent. The traced run reports it, ungated.
	fmt.Printf("# %-32s %14.6g %s\n", "lat_p50_us (not gated)", quantile(s.base, 0.5), "us")
	r.add("lat_p90_us", "us", quantile(s.base, 0.9))
	r.add("deepq_lat_p50_us", "us", quantile(s.deep, 0.5))
	r.add("deepq_lat_p90_us", "us", quantile(s.deep, 0.9))
	r.add("bulk_MBps", "MB/s", j.bulkBytes/quantile(bulk, 0.5))
	r.add("solve_s", "s", quantile(s.solve, 0.5))
	r.add("allocs_per_op", "count", float64(s.allocs)/float64(s.ops))
	// The highest heap of one job is a matter of when its collections
	// fell; the median over the jobs of their peaks is not.
	r.add("heap_peak_MB", "MB", quantile(j.heap, 0.5)/1e6)
	fmt.Printf("# samples: %d jobs, %d base, %d deep-queue, %d bulk, %d solves\n", len(j.setup), len(s.base), len(s.deep), len(s.bulk), len(s.solve))
	return r, nil
}
