package coll

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// TestBlockingAllreduceAllocBudget bounds the process-wide allocations
// of a steady stream of blocking one-element MAX allreduces on 2 ranks:
// a repeated call re-runs the communicator's cached schedule instead of
// compiling a fresh one. The count covers both ranks and every layer
// the call touches (engine requests, payloads, dense clones).
func TestBlockingAllreduceAllocBudget(t *testing.T) {
	const n, warm, calls = 2, 50, 400
	devs := transport.NewShmJob(n, 0)
	procs := make([]*core.Proc, n)
	for i, d := range devs {
		procs[i] = core.NewProc(d, core.Config{EagerLimit: 256})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	var warmed, done sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	warmed.Add(n)
	done.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer done.Done()
			c := &Comm{P: procs[rank], Ctx: 1, Rank: rank, Size: n, World: func(gr int) int { return gr }}
			v := []float64{float64(rank)}
			loop := func(k int) error {
				for i := 0; i < k; i++ {
					res, err := c.Allreduce(v, Max)
					if err != nil {
						return err
					}
					if got := res.([]float64)[0]; got != n-1 {
						t.Errorf("rank %d: allreduce = %v, want %d", rank, got, n-1)
					}
				}
				return nil
			}
			err := loop(warm)
			warmed.Done()
			if err != nil {
				errs[rank] = err
				return
			}
			<-start
			errs[rank] = loop(calls)
		}(r)
	}
	warmed.Wait()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	done.Wait()
	runtime.ReadMemStats(&after)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	perCall := float64(after.Mallocs-before.Mallocs) / calls
	budget := 16.0
	if raceEnabled {
		budget = 20
	}
	t.Logf("blocking Allreduce: %.1f allocs per call (both ranks)", perCall)
	if perCall > budget {
		t.Fatalf("blocking Allreduce allocates %.1f per call (both ranks), want <= %.0f", perCall, budget)
	}
}

// TestBlockingCacheThrash interleaves blocking collectives whose shapes
// keep changing — MAX on float64 and SUM on int32 through the one
// Allreduce slot, Reduce and Bcast under rotating roots — with repeats
// that hit the cache. Every result is checked against a serial
// reference, and again after the next call of its kind, which re-runs
// or rebuilds the schedule that produced it. 3 ranks take the
// non-power-of-two fold path.
func TestBlockingCacheThrash(t *testing.T) {
	const rounds = 12
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runGroup(t, n, func(c *Comm) (any, error) {
				fval := func(r, k int) float64 { return float64((r*7+k*3)%11) - 5 }
				ival := func(r, k int) []int32 { return []int32{int32(r + k), int32(r * k)} }
				type kept struct {
					name      string
					got, want any
				}
				var prev []kept
				check := func(name string, got, want any) error {
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s = %v, want %v", name, got, want)
					}
					prev = append(prev, kept{name, got, want})
					return nil
				}
				for k := 0; k < rounds; k++ {
					// Results from the previous round must have survived
					// this round's re-runs of the same slots.
					for _, p := range prev {
						if !reflect.DeepEqual(p.got, p.want) {
							return nil, fmt.Errorf("round %d: earlier %s changed to %v, want %v", k, p.name, p.got, p.want)
						}
					}
					prev = prev[:0]

					wantMax := fval(0, k)
					wantSum := []int32{0, 0}
					for r := 0; r < n; r++ {
						wantMax = max(wantMax, fval(r, k))
						v := ival(r, k)
						wantSum[0] += v[0]
						wantSum[1] += v[1]
					}
					for rep := 0; rep < 2; rep++ { // the repeat hits the cache
						res, err := c.Allreduce([]float64{fval(c.Rank, k)}, Max)
						if err != nil {
							return nil, err
						}
						if err := check(fmt.Sprintf("round %d max #%d", k, rep), res, []float64{wantMax}); err != nil {
							return nil, err
						}
					}
					res, err := c.Allreduce(ival(c.Rank, k), Sum)
					if err != nil {
						return nil, err
					}
					if err := check(fmt.Sprintf("round %d sum", k), res, wantSum); err != nil {
						return nil, err
					}

					root := k % n
					res, err = c.Reduce(root, ival(c.Rank, k), Sum)
					if err != nil {
						return nil, err
					}
					var want any = wantSum
					if c.Rank != root {
						want = nil
					}
					if err := check(fmt.Sprintf("round %d reduce@%d", k, root), res, want); err != nil {
						return nil, err
					}

					broot := (k + 1) % n
					for rep := 0; rep < 2; rep++ {
						var data []byte
						if c.Rank == broot {
							data = []byte(fmt.Sprintf("r%d-k%d-%d", broot, k, rep))
						}
						got, err := c.Bcast(broot, data)
						if err != nil {
							return nil, err
						}
						if err := check(fmt.Sprintf("round %d bcast@%d #%d", k, broot, rep), got,
							[]byte(fmt.Sprintf("r%d-k%d-%d", broot, k, rep))); err != nil {
							return nil, err
						}
					}
					if err := c.Barrier(); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
		})
	}
}

// TestBlockingCacheConcurrentCallers: two goroutines per rank run
// blocking allreduces on one communicator at once, so one of them finds
// the slot busy and compiles its own schedule. Every call has the same
// kind, shape and contribution, so however the ranks' instance numbers
// pair up the calls, each result is the same.
func TestBlockingCacheConcurrentCallers(t *testing.T) {
	const n, calls = 3, 40
	runGroup(t, n, func(c *Comm) (any, error) {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls && errs[g] == nil; i++ {
					res, err := c.Allreduce([]float64{float64(c.Rank)}, Max)
					if err == nil && res.([]float64)[0] != n-1 {
						err = fmt.Errorf("allreduce = %v, want %d", res, n-1)
					}
					errs[g] = err
				}
			}(g)
		}
		wg.Wait()
		return nil, errors.Join(errs...)
	})
}

// TestBlockingCacheDropsFailedSlot: an activation that fails — here
// because a member revokes the communicator while the others wait on it
// — drops its slot, and the failed schedule is never re-armed by later
// calls.
func TestBlockingCacheDropsFailedSlot(t *testing.T) {
	const n = 3
	runGroup(t, n, func(c *Comm) (any, error) {
		sl := &c.slots[KindAllreduce]
		var cached *sched
		for i := 0; i < 3; i++ {
			if _, err := c.Allreduce([]float64{1}, Max); err != nil {
				return nil, err
			}
			if i > 0 && sl.s != cached {
				return nil, fmt.Errorf("call %d rebuilt a schedule of unchanged shape", i)
			}
			cached = sl.s
		}
		// The last rank revokes only once every other rank reports its
		// warm-up calls done: a revoke notice can overtake a warm-up
		// message still in flight on another pair and fail that call
		// instead of the one under test. The report travels on a
		// context of its own, which the revocation leaves alone.
		const readyCtx = 8
		if c.Rank < n-1 {
			req, err := c.P.Isend(readyCtx, c.Rank, n-1, 0, nil, core.ModeStandard, false)
			if err != nil {
				return nil, err
			}
			req.Wait()
		} else {
			for r := 0; r < n-1; r++ {
				if st := c.P.Irecv(readyCtx, int32(r), 0).Wait(); st.Err != nil {
					return nil, st.Err
				}
			}
		}

		if c.Rank == n-1 {
			// The last rank revokes instead of entering; the notice
			// floods to ranks 0 and 1, failing the receives their
			// schedules wait on (rank 1 on the last rank, rank 0 on
			// rank 1's post-fold), then its own call fails fast.
			c.P.Revoke(c.Ctx)
		}
		_, err := c.Allreduce([]float64{1}, Max)
		if !errors.Is(err, core.ErrCommRevoked) {
			return nil, fmt.Errorf("allreduce on revoked comm: %v, want ErrCommRevoked", err)
		}
		if sl.s != nil {
			return nil, fmt.Errorf("failed activation kept its slot")
		}
		failedInst := cached.inst
		if failedInst != c.seq.Load()-1 {
			return nil, fmt.Errorf("failing call ran instance %d, want the cached schedule to run %d", failedInst, c.seq.Load()-1)
		}
		if _, err := c.Allreduce([]float64{1}, Max); !errors.Is(err, core.ErrCommRevoked) {
			return nil, fmt.Errorf("second allreduce on revoked comm: %v, want ErrCommRevoked", err)
		}
		if cached.inst != failedInst || sl.s == cached {
			return nil, fmt.Errorf("failed schedule re-armed (instance %d → %d)", failedInst, cached.inst)
		}
		return nil, nil
	})
}
