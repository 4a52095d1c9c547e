package main

import (
	"fmt"
	"math/rand"
	"time"

	"gompi/mpi"
)

// object_ring: batches of ringBatch seed-generated structs with slices
// and maps circulate between the two ranks as mpi.OBJECT over the chan
// device. Each hop adds one to every object's hop count; both ranks
// check every field and hop count of every batch they receive.
const (
	ringBatch = 16
	circuits  = 16 // circuits per phase of a round
	tagRing   = 20
	ringDev   = "chan"
)

// Particle is the object that travels the ring.
type Particle struct {
	ID    int64
	Hops  int64
	Pos   []float64
	Tags  map[string]int32
	Label string
}

func init() { mpi.RegisterObject(Particle{}) }

// seedBatch generates the batch of a seed, hop counts zero. Only the
// values depend on the seed; every seed gives objects of one shape, so
// the encoding work does not change from seed to seed.
func seedBatch(seed int64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	b := make([]Particle, ringBatch)
	for i := range b {
		p := Particle{ID: rng.Int63(), Pos: make([]float64, 6), Tags: map[string]int32{}}
		for k := range p.Pos {
			p.Pos[k] = rng.NormFloat64()
		}
		for k := 0; k < 3; k++ {
			p.Tags[fmt.Sprintf("tag%d", k)] = rng.Int31()
		}
		label := make([]byte, 16)
		for k := range label {
			label[k] = byte('a' + rng.Intn(26))
		}
		p.Label = string(label)
		b[i] = p
	}
	return b
}

// sameParticle reports whether got is want with hops hop count.
func sameParticle(got any, want Particle, hops int64) bool {
	p, ok := got.(Particle)
	if !ok || p.ID != want.ID || p.Hops != hops || p.Label != want.Label ||
		len(p.Pos) != len(want.Pos) || len(p.Tags) != len(want.Tags) {
		return false
	}
	for k, v := range want.Pos {
		if p.Pos[k] != v {
			return false
		}
	}
	for k, v := range want.Tags {
		if w, ok := p.Tags[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func runRing(seed int64, d time.Duration) (*report, error) {
	j, err := ring(seed, d, false, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return j.endToEnd()
}

func tracedRing(seed int64, d time.Duration) (*report, error) {
	j, err := ring(seed, d, true, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return layerReport(j, "object_ring", seed)
}

// ring runs the workload; a round is circuits circuits with empty queues
// and circuits with deepDepth receives posted.
func ring(seed int64, d time.Duration, traced bool, opt mpi.RunOptions) (*runState, error) {
	j := newRunState(traced)
	want := seedBatch(seed)
	opt.NP, opt.Device = np, ringDev
	err := j.rounds(opt, d, func(env *mpi.Env, rc roundCtx) error {
		world := env.CommWorld()
		rank := world.Rank()
		peer := 1 - rank
		out, in := make([]any, ringBatch), make([]any, ringBatch)
		outB, inB := any(out), any(in) // boxed once, see pt2pt
		for i := range want {
			out[i] = want[i] // rank 0's first batch
		}
		// hop is the hop count the next batch this rank receives must
		// carry; it advances by two per circuit on both ranks.
		hop := int64(1 - rank)
		verify := func() {
			for i := range in {
				j.tally.check(sameParticle(in[i], want[i], hop))
			}
			hop += 2
		}
		// advance readies in as the next outgoing batch, one hop on.
		advance := func() {
			for i := range in {
				if p, ok := in[i].(Particle); ok {
					p.Hops++
					out[i] = p
				}
			}
		}
		forward := func(tr *tracer, op int64, parent int32) error {
			advance()
			s := tr.begin("mpi.Send(OBJECT)", op, parent)
			defer tr.end(s)
			return world.Send(outB, 0, ringBatch, mpi.OBJECT, peer, tagRing)
		}
		// recv takes the next batch into in. A batch that does not decode
		// leaves nil objects behind, which verify counts as failed; the
		// message is consumed either way, so the ranks stay in step.
		recv := func(tr *tracer, op int64, parent int32) error {
			clear(in)
			s := tr.begin("mpi.Recv(OBJECT)", op, parent)
			defer tr.end(s)
			st, err := world.Recv(inB, 0, ringBatch, mpi.OBJECT, peer, tagRing)
			switch {
			case err == nil:
				if rank == 0 {
					j.bulkBytes = 2 * float64(st.Bytes())
				}
				return nil
			case dataError(err):
				return nil
			}
			return err
		}
		var op int64
		circuit := func(rc roundCtx) func(int) error {
			return func(int) error {
				op++
				if rank == 1 {
					if err := recv(rc.tr, op, -1); err != nil {
						return err
					}
					if err := forward(rc.tr, op, -1); err != nil {
						return err
					}
					verify()
					return nil
				}
				root := rc.tr.begin("circuit", op, -1)
				defer rc.tr.end(root)
				s := rc.tr.begin("mpi.Send(OBJECT)", op, root)
				err := world.Send(outB, 0, ringBatch, mpi.OBJECT, peer, tagRing)
				rc.tr.end(s)
				if err != nil {
					return err
				}
				return recv(rc.tr, op, root)
			}
		}
		// Rank 0 checks the returned batch and readies the next one
		// outside the timed circuit.
		after := func(int) error {
			if rank == 0 {
				verify()
				advance()
			}
			return nil
		}
		t0 := time.Now()
		if err := j.timed(rc, circuits, 1, &rc.set.base, circuit(rc), after); err != nil {
			return fmt.Errorf("circuits: %w", err)
		}
		if rc.record {
			rc.set.solve = append(rc.set.solve, time.Since(t0).Seconds())
		}
		err := withDeepQueue(world, func() error {
			return j.timed(rc, circuits, 1, &rc.set.deep, circuit(rc.untraced()), after)
		})
		if err != nil {
			return fmt.Errorf("deep-queue circuits: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// dataError reports whether err is a receive that arrived but could not
// be decoded, as opposed to a failed peer or communicator.
func dataError(err error) bool {
	switch mpi.ClassOf(err) {
	case mpi.ErrOther, mpi.ErrIntern, mpi.ErrTruncate:
		return true
	}
	return false
}
