package mpi_test

import (
	"testing"

	"gompi/mpi"
)

// The allreduce benchmark trio quantifies what schedule caching buys,
// one 256-element SUM on 2 ranks per iteration:
// BenchmarkPersistentAllreduce cycles one AllreduceInit through
// Start/Wait, BenchmarkOneShotIallreduce compiles a fresh Iallreduce
// schedule each iteration, and BenchmarkBlockingAllreduce calls the
// blocking Allreduce, which re-runs the communicator's cached schedule.
// Per-op allocations for the persistent cycle must stay below the
// one-shot loop — the cached schedule, the instance minted once and the
// recycled wire buffers are the point of the API — and the blocking
// call, once its schedule is cached, should allocate about as little as
// the persistent cycle.

type allreduceMode int

const (
	persistent allreduceMode = iota
	oneShot
	blocking
)

func benchAllreduce(b *testing.B, mode allreduceMode) {
	b.ReportAllocs()
	const count = 256
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		send := make([]float64, count)
		recv := make([]float64, count)
		for i := range send {
			send[i] = float64(w.Rank() + i)
		}
		var op func() error
		switch mode {
		case persistent:
			red, err := w.AllreduceInit(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
			if err != nil {
				return err
			}
			defer red.Free()
			op = func() error {
				if err := red.Start(); err != nil {
					return err
				}
				_, err := red.Wait()
				return err
			}
		case oneShot:
			op = func() error {
				req, err := w.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
				if err != nil {
					return err
				}
				_, err = req.Wait()
				return err
			}
		case blocking:
			op = func() error { return w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM) }
		}
		// Warm outside the timed region.
		if err := op(); err != nil {
			return err
		}
		if w.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPersistentAllreduce(b *testing.B) { benchAllreduce(b, persistent) }
func BenchmarkOneShotIallreduce(b *testing.B)   { benchAllreduce(b, oneShot) }
func BenchmarkBlockingAllreduce(b *testing.B)   { benchAllreduce(b, blocking) }
