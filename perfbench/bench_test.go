package main

import (
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// corrupter flips one byte in the middle of every received frame whose
// length lies in [min, max]; with once set it corrupts only the first.
type corrupter struct {
	transport.Device
	min, max int
	once     bool
	done     atomic.Bool
}

func (c *corrupter) Recv() (transport.Frame, error) {
	f, err := c.Device.Recv()
	if err != nil {
		return f, err
	}
	b := f.Payload
	if b == nil {
		b = f.Data
	}
	if len(b) >= c.min && len(b) <= c.max && !(c.once && c.done.Swap(true)) {
		b[len(b)/2] ^= 0x5a
	}
	return f, nil
}

// corruptRank1 wraps rank 1's device in c.
func corruptRank1(c *corrupter) mpi.RunOptions {
	return mpi.RunOptions{WrapDevice: func(rank int, d transport.Device) transport.Device {
		if rank != 1 {
			return d
		}
		c.Device = d
		return c
	}}
}

type runFunc func(seed int64, d time.Duration, traced bool, opt mpi.RunOptions) (*runState, error)

// TestCorruptionCountsAsFailed runs every workload clean, which must
// verify every output, and with a byte of its payload flipped in
// transit, which must show up as failed operations.
func TestCorruptionCountsAsFailed(t *testing.T) {
	cases := []struct {
		name string
		run  runFunc
		bad  *corrupter
	}{
		// Every 1 MiB rendezvous payload: both CRC checks fail.
		{"pt2pt_tcp", pt2pt, &corrupter{min: bulkSize, max: bulkSize + 256}},
		// One halo column: the residuals and the final grid diverge
		// from the serial reference.
		{"stencil", stencil, &corrupter{min: gridN * 8, max: gridN*8 + 128, once: true}},
		// One OBJECT batch: a field changes or the batch fails to decode.
		{"object_ring", ring, &corrupter{min: 1024, max: 1 << 16, once: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, err := c.run(7, 200*time.Millisecond, false, mpi.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if a, f := j.tally.attempted.Load(), j.tally.failed.Load(); a == 0 || f != 0 {
				t.Fatalf("clean run: %d attempted, %d failed; want some attempted, none failed", a, f)
			}
			j, err = c.run(7, 200*time.Millisecond, false, corruptRank1(c.bad))
			if err != nil {
				t.Fatal(err)
			}
			if f := j.tally.failed.Load(); f == 0 {
				t.Fatalf("corrupted run: no failed operations out of %d", j.tally.attempted.Load())
			}
		})
	}
}

// TestSerialReferenceIsDeterministic checks that a seed fixes the
// stencil's reference solve and that another seed changes it.
func TestSerialReferenceIsDeterministic(t *testing.T) {
	a, b, c := serialSolve(seedGrid(1)), serialSolve(seedGrid(1)), serialSolve(seedGrid(2))
	for i := range a.grid {
		if a.grid[i] != b.grid[i] {
			t.Fatalf("same seed, grids differ at %d", i)
		}
	}
	if a.res[sweeps-1] == c.res[sweeps-1] {
		t.Fatal("different seeds gave the same final residual")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q < 4.59 || q > 4.61 {
		t.Fatalf("p90 %v, want 4.6", q)
	}
}
