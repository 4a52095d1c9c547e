package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// stencil: a Jacobi 5-point sweep over a gridN x gridN grid whose
// boundary is fixed, split by columns over the ranks on the chan device.
// Each sweep exchanges halo columns as an MPI_TYPE_VECTOR with
// Isend/IrecvInto + WaitAll, runs the kernel and reduces the MAX
// residual with a blocking typed.AllreduceOne. The grid is small enough
// that communication, not the kernel, sets the sweep time (at 256x256
// the kernel dominated). Every solve must match a serial solve of the
// same seed bit for bit, residual by residual.
const (
	gridN      = 64
	sweeps     = 100
	tagRight   = 10 // halo travelling to the right-hand neighbour
	tagLeft    = 11
	haloBytes  = 2 * (np - 1) * gridN * 8 // halo bytes one sweep moves
	stencilDev = "chan"
)

// seedGrid is the initial grid of a seed, boundary included.
func seedGrid(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, gridN*gridN)
	for i := range g {
		g[i] = rng.Float64()
	}
	return g
}

// jacobi runs one sweep over columns [1, cols-1) of the rows x cols
// array u into nu and returns the largest change; it is the kernel of
// both the serial reference and the ranks.
func jacobi(u, nu []float64, rows, cols int) float64 {
	var res float64
	for i := 1; i < rows-1; i++ {
		up, row, down := u[(i-1)*cols:i*cols], u[i*cols:(i+1)*cols], u[(i+1)*cols:(i+2)*cols]
		out := nu[i*cols : (i+1)*cols]
		for k := 1; k < cols-1; k++ {
			v := 0.25 * (up[k] + down[k] + row[k-1] + row[k+1])
			if d := math.Abs(v - row[k]); d > res {
				res = d
			}
			out[k] = v
		}
	}
	return res
}

// reference is the serial solve: the final grid, the residual of every
// sweep and the time of every sweep in µs.
type reference struct {
	grid  []float64
	res   []float64
	sweep []float64
}

func serialSolve(g0 []float64) reference {
	u := append([]float64(nil), g0...)
	nu := append([]float64(nil), g0...)
	ref := reference{res: make([]float64, sweeps), sweep: make([]float64, sweeps)}
	for s := 0; s < sweeps; s++ {
		t0 := time.Now()
		ref.res[s] = jacobi(u, nu, gridN, gridN)
		ref.sweep[s] = float64(time.Since(t0).Nanoseconds()) / 1e3
		u, nu = nu, u
	}
	ref.grid = u
	return ref
}

func runStencil(seed int64, d time.Duration) (*report, error) {
	j, err := stencil(seed, d, false, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return j.endToEnd()
}

func tracedStencil(seed int64, d time.Duration) (*report, error) {
	j, err := stencil(seed, d, true, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return layerReport(j, "stencil", seed)
}

// stencil runs the workload; a round is one solve with empty queues and
// one with deepDepth receives posted.
func stencil(seed int64, d time.Duration, traced bool, opt mpi.RunOptions) (*runState, error) {
	j := newRunState(traced)
	j.bulkBytes = haloBytes
	g0 := seedGrid(seed)
	ref := serialSolve(g0)
	opt.NP, opt.Device = np, stencilDev
	err := j.rounds(opt, d, func(env *mpi.Env, rc roundCtx) error {
		world := env.CommWorld()
		s, err := newSlab(world, g0)
		if err != nil {
			return err
		}
		solve := func(rc roundCtx, out *[]float64) error {
			s.reset(g0)
			err := j.timed(rc, sweeps, 1, out, func(i int) error {
				res, err := s.sweep(rc.tr, int64(i))
				j.tally.check(err == nil && math.Float64bits(res) == math.Float64bits(ref.res[i]))
				return err
			}, nil)
			if err != nil {
				return err
			}
			j.tally.check(s.matches(ref.grid))
			return nil
		}
		t0 := time.Now()
		if err := solve(rc, &rc.set.base); err != nil {
			return fmt.Errorf("solve: %w", err)
		}
		if rc.record {
			rc.set.solve = append(rc.set.solve, time.Since(t0).Seconds())
		}
		err = withDeepQueue(world, func() error { return solve(rc.untraced(), &rc.set.deep) })
		if err != nil {
			return fmt.Errorf("deep-queue solve: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// slab is one rank's block of columns with a ghost column on each side:
// gridN rows of w+2 values, row-major, so a column is strided.
type slab struct {
	world       *mpi.Intracomm
	u, nu       []float64
	ub, nub     any // u and nu boxed once, so passing them allocates nothing
	w, c0       int // owned columns; global column of local column 0
	left, right int // neighbour ranks, -1 at the boundary
	col         *mpi.Datatype
	reqs        []*mpi.Request
}

func newSlab(world *mpi.Intracomm, g0 []float64) (*slab, error) {
	rank, size := world.Rank(), world.Size()
	w := (gridN - 2) / size
	col, err := mpi.TypeVector(gridN, 1, w+2, mpi.DOUBLE)
	if err != nil {
		return nil, err
	}
	col.Commit()
	s := &slab{
		world: world, w: w, c0: rank * w, left: rank - 1, right: rank + 1, col: col,
		u: make([]float64, gridN*(w+2)), nu: make([]float64, gridN*(w+2)),
	}
	if s.right == size {
		s.right = -1
	}
	s.ub, s.nub = s.u, s.nu
	s.reset(g0)
	return s, nil
}

// reset loads the slab's part of the initial grid into both buffers.
func (s *slab) reset(g0 []float64) {
	for i := 0; i < gridN; i++ {
		copy(s.u[i*(s.w+2):(i+1)*(s.w+2)], g0[i*gridN+s.c0:])
		copy(s.nu[i*(s.w+2):(i+1)*(s.w+2)], g0[i*gridN+s.c0:])
	}
}

// sweep exchanges halos, updates the owned columns and returns the
// global MAX residual.
func (s *slab) sweep(tr *tracer, op int64) (float64, error) {
	root := tr.begin("sweep", op, -1)
	sp := tr.begin("halo.post", op, root)
	s.reqs = s.reqs[:0]
	post := func(nb, recvCol, sendCol, recvTag, sendTag int) error {
		r, err := s.world.IrecvInto(s.ub, recvCol, 1, s.col, nb, recvTag)
		if err != nil {
			return err
		}
		snd, err := s.world.Isend(s.ub, sendCol, 1, s.col, nb, sendTag)
		if err != nil {
			return err
		}
		s.reqs = append(s.reqs, r, snd)
		return nil
	}
	if s.left >= 0 {
		if err := post(s.left, 0, 1, tagRight, tagLeft); err != nil {
			return 0, err
		}
	}
	if s.right >= 0 {
		if err := post(s.right, s.w+1, s.w, tagLeft, tagRight); err != nil {
			return 0, err
		}
	}
	tr.end(sp)
	sp = tr.begin("halo.wait", op, root)
	if _, err := mpi.WaitAll(s.reqs); err != nil {
		return 0, err
	}
	tr.end(sp)
	sp = tr.begin("compute", op, root)
	local := jacobi(s.u, s.nu, gridN, s.w+2)
	tr.end(sp)
	sp = tr.begin("typed.AllreduceOne", op, root)
	res, err := typed.AllreduceOne(s.world, local, typed.Max[float64]())
	tr.end(sp)
	tr.end(root)
	s.u, s.nu = s.nu, s.u
	s.ub, s.nub = s.nub, s.ub
	return res, err
}

// matches reports whether the owned columns equal the reference grid
// bit for bit.
func (s *slab) matches(ref []float64) bool {
	for i := 0; i < gridN; i++ {
		for k := 1; k <= s.w; k++ {
			if math.Float64bits(s.u[i*(s.w+2)+k]) != math.Float64bits(ref[i*gridN+s.c0+k]) {
				return false
			}
		}
	}
	return true
}
