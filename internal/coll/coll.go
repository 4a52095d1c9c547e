package coll

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/dtype"
)

// Comm is the collective layer's view of a communicator: the rank's
// progress engine, the communicator's reserved collective context, the
// caller's group rank and size, and the group-rank→world-rank map.
// Collectives on one communicator must be started by all members in the
// same order (the MPI rule); the per-instance tags minted from seq rely
// on it, and in return let any number of collectives overlap in flight
// without cross-matching.
type Comm struct {
	P     *core.Proc
	Ctx   int32
	Rank  int
	Size  int
	World func(groupRank int) int

	// seq numbers the collective instances started on this
	// communicator: exactly one per collective call, minted
	// synchronously inside the call whether it compiles a schedule,
	// re-runs a cached one or fails validation. Every member starts collectives in the same
	// order, so the sequence-derived tags agree across ranks.
	seq atomic.Uint32

	// rseq numbers the fault-tolerant agreement rounds (see agree.go)
	// separately from seq: after a failure, survivors may have
	// abandoned data collectives at different points — seq is no
	// longer aligned across ranks — but they enter recovery with the
	// same Agree/Shrink call sequence, so a dedicated counter keeps
	// the repair traffic's tags aligned.
	rseq atomic.Uint32

	// obs caches this communicator's performance-variable handles
	// (see obs.go); the zero value resolves lazily on first use.
	obs commObs

	// slots caches one compiled schedule per blocking collective kind
	// (see cache.go); the zero value is an empty cache.
	slots [numKinds]slot
}

// Internal tag families, one per collective family, in the low
// tagFamBits bits of the matching tag; the instance sequence number
// occupies the bits above. Distinct families keep unrelated collectives
// apart even across the (enormous) sequence wrap-around.
const (
	tagBarrier = iota + 1
	tagBcast
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagReduce
	tagScan
	// tagExscan is Exscan's own family: Scan and Exscan traffic must
	// never cross-match, even back to back on one communicator.
	tagExscan
	// tagAgree is the fault-tolerant agreement's family (see agree.go).
	// Its instances additionally carry core.RecoveryTag so they survive
	// communicator revocation.
	tagAgree
	// tagPlan0 is the first of the families reserved for Plan-composed
	// schedules (see plan.go): each communication primitive added to a
	// Plan draws the next family, so a composed schedule may use the
	// same primitive (e.g. two alltoalls in a two-phase read) without
	// its rounds cross-matching.
	tagPlan0
)

const (
	tagFamBits = 4
	// seqPeriod keeps tags inside the engine's positive 30-bit tag
	// range; 2^26 in-flight collectives would be needed to collide.
	seqPeriod = 1 << 26
)

// SkipInstance advances the collective sequence without running a
// collective. Callers that abort a collective before building its
// schedule (local argument errors in the binding layer) use it to stay
// tag-aligned with members whose matching call proceeded.
func (c *Comm) SkipInstance() { c.mint() }

// rel maps a group rank to its rank relative to root; unrel inverts it.
func rel(rank, root, size int) int { return (rank - root + size) % size }

func unrel(vr, root, size int) int { return (vr + root) % size }

func (c *Comm) check(root int) error {
	if root < 0 || root >= c.Size {
		return fmt.Errorf("coll: root rank %d out of range [0,%d)", root, c.Size)
	}
	return nil
}

// topMask returns the power of two at or above size (the binomial
// trees' starting mask before the first halving).
func topMask(size int) int {
	top := 1
	for top < size {
		top <<= 1
	}
	return top
}

// ---------------------------------------------------------------------
// Schedule builders. Each appends one algorithm's steps to a schedule,
// naming only tag families (the send and receive posts form the
// matching tag from the running activation's instance); composed
// collectives (allreduce over reduce+bcast, reduce-scatter over
// reduce+scatter) chain builders, threading mid-schedule values through
// pointers.
//
// Two conventions make the schedules pool-ready and re-runnable: waits
// for messages go through recvStep/exchStep (post step + gated consume
// step — the executor parks rather than blocks), and every piece of
// mutable per-activation state is initialized in an onReset hook rather
// than at build time, so a persistent schedule re-arms cleanly on each
// Start and a cached blocking schedule on each call.
// ---------------------------------------------------------------------

// addBarrierSteps schedules the dissemination barrier: ⌈log2 p⌉ rounds
// of shifted token exchanges.
func (c *Comm) addBarrierSteps(s *sched) {
	for k := 1; k < c.Size; k <<= 1 {
		dst := (c.Rank + k) % c.Size
		src := (c.Rank - k + c.Size) % c.Size
		s.exchStep(dst, src, tagBarrier,
			func() ([]byte, error) { return nil, nil },
			func([]byte) error { return nil })
	}
}

// addBcastSteps schedules a binomial-tree broadcast: at completion
// *data holds root's payload on every member.
func (c *Comm) addBcastSteps(s *sched, root int, data *[]byte) {
	vr := rel(c.Rank, root, c.Size)
	start := topMask(c.Size) >> 1
	if vr != 0 {
		low := vr & -vr // subtree parent sits at the lowest set bit
		s.recvStep(unrel(vr-low, root, c.Size), tagBcast, func(got []byte) error {
			*data = got
			return nil
		})
		start = low >> 1
	}
	for mask := start; mask > 0; mask >>= 1 {
		if vr+mask >= c.Size {
			continue
		}
		mask := mask
		s.step(func() error {
			return s.isend(unrel(vr+mask, root, c.Size), tagBcast, *data)
		})
	}
}

// bundle encoding: u32 count, then per block u32 vrank, u32 len, bytes.
func encodeBundle(blocks map[int][]byte) []byte {
	n := 4
	for _, b := range blocks {
		n += 8 + len(b)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blocks)))
	for vr, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(vr))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

func decodeBundle(data []byte, into map[int][]byte) error {
	if len(data) < 4 {
		return fmt.Errorf("coll: short bundle")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	for i := 0; i < n; i++ {
		if len(data) < 8 {
			return fmt.Errorf("coll: truncated bundle header")
		}
		vr := int(binary.LittleEndian.Uint32(data))
		ln := int(binary.LittleEndian.Uint32(data[4:]))
		data = data[8:]
		if len(data) < ln {
			return fmt.Errorf("coll: truncated bundle block")
		}
		into[vr] = data[:ln:ln]
		data = data[ln:]
	}
	return nil
}

// addGatherSteps schedules a binomial-tree gather of every member's
// block (*mine) toward root; at completion *out (root only) holds the
// blocks indexed by group rank.
func (c *Comm) addGatherSteps(s *sched, root int, mine *[]byte, out *[][]byte) {
	vr := rel(c.Rank, root, c.Size)
	var have map[int][]byte
	s.onReset(func() { have = make(map[int][]byte) })
	s.step(func() error { have[vr] = *mine; return nil })
	for mask := 1; mask < c.Size; mask <<= 1 {
		mask := mask
		if vr&mask != 0 {
			s.step(func() error {
				return s.isend(unrel(vr-mask, root, c.Size), tagGather, encodeBundle(have))
			})
			return // subtree forwarded; this member is done
		}
		if vr+mask < c.Size {
			s.recvStep(unrel(vr+mask, root, c.Size), tagGather, func(got []byte) error {
				return decodeBundle(got, have)
			})
		}
	}
	// vr == 0: assemble at root.
	s.step(func() error {
		res := make([][]byte, c.Size)
		for v, b := range have {
			res[unrel(v, root, c.Size)] = b
		}
		*out = res
		return nil
	})
}

// addScatterSteps schedules the binomial-tree scatter of *parts
// (indexed by group rank, significant at root); at completion *out
// holds this member's block. Blocks may have different sizes, so the
// same schedule serves Scatterv. validate checks the root's parts
// length before a Scatter call is built; composed schedules construct
// *parts mid-run, so the root step re-checks.
func (c *Comm) addScatterSteps(s *sched, root int, parts *[][]byte, out *[]byte) {
	vr := rel(c.Rank, root, c.Size)
	var have map[int][]byte
	s.onReset(func() { have = make(map[int][]byte) })
	var start int
	if vr == 0 {
		s.step(func() error {
			if len(*parts) != c.Size {
				return fmt.Errorf("coll: scatter with %d parts for %d ranks", len(*parts), c.Size)
			}
			for r, b := range *parts {
				have[rel(r, root, c.Size)] = b
			}
			return nil
		})
		start = topMask(c.Size) >> 1
	} else {
		low := vr & -vr
		s.recvStep(unrel(vr-low, root, c.Size), tagScatter, func(got []byte) error {
			return decodeBundle(got, have)
		})
		start = low >> 1
	}
	for mask := start; mask > 0; mask >>= 1 {
		if vr+mask >= c.Size {
			continue
		}
		mask := mask
		s.step(func() error {
			sub := make(map[int][]byte)
			hi := vr + 2*mask
			if hi > c.Size {
				hi = c.Size
			}
			for v := vr + mask; v < hi; v++ {
				if b, ok := have[v]; ok {
					sub[v] = b
					delete(have, v)
				}
			}
			return s.isend(unrel(vr+mask, root, c.Size), tagScatter, encodeBundle(sub))
		})
	}
	s.step(func() error { *out = have[vr]; return nil })
}

// addAllgatherSteps schedules the ring allgather (p-1 shifted steps)
// under tag family (tagAllgather, or a Plan's own): at completion *out
// holds every member's block (*mine is re-read each activation). Blocks
// may differ in size, so this also serves Allgatherv.
func (c *Comm) addAllgatherSteps(s *sched, family int, mine *[]byte, out *[][]byte) {
	right := (c.Rank + 1) % c.Size
	left := (c.Rank - 1 + c.Size) % c.Size
	var blocks [][]byte
	var cur []byte
	s.onReset(func() {
		blocks = make([][]byte, c.Size)
		blocks[c.Rank] = *mine
		cur = *mine
	})
	for st := 0; st < c.Size-1; st++ {
		st := st
		s.exchStep(right, left, family,
			func() ([]byte, error) { return cur, nil },
			func(in []byte) error {
				origin := (c.Rank - st - 1 + c.Size) % c.Size
				blocks[origin] = in
				cur = in
				return nil
			})
	}
	s.step(func() error { *out = blocks; return nil })
}

// addAlltoallSteps schedules the pairwise-exchange alltoall under tag
// family (tagAlltoall, or a Plan's own): (*parts)[j] reaches member j;
// at completion *out holds the blocks received from every member.
// Variable block sizes make it also serve Alltoallv. *parts is read
// lazily inside the steps, so a Plan may fill the (pre-sized) slice
// from an earlier step of the same schedule.
func (c *Comm) addAlltoallSteps(s *sched, family int, parts *[][]byte, out *[][]byte) {
	var res [][]byte
	s.onReset(func() { res = make([][]byte, c.Size) })
	for st := 1; st < c.Size; st++ {
		dst := (c.Rank + st) % c.Size
		src := (c.Rank - st + c.Size) % c.Size
		s.exchStep(dst, src, family,
			func() ([]byte, error) { return (*parts)[dst], nil },
			func(in []byte) error { res[src] = in; return nil })
	}
	s.step(func() error { res[c.Rank] = (*parts)[c.Rank]; *out = res; return nil })
}

// addReduceSteps schedules the reduction of *mine toward root (the
// pointed-to dense slice must be valid at build time, and is re-read on
// each activation); at completion *out (root only) holds the folded
// dense slice. Commutative ops fold up a binomial tree; non-commutative
// ops gather at root and fold in strict rank order.
func (c *Comm) addReduceSteps(s *sched, root int, mine *any, op *Op, out *any) {
	if !op.Commutative {
		c.addOrderedReduceSteps(s, root, mine, op, out)
		return
	}
	vr := rel(c.Rank, root, c.Size)
	cls, _ := dtype.ClassOf(*mine)
	var acc any
	s.onReset(func() { acc = dtype.CloneDense(*mine) })
	for mask := 1; mask < c.Size; mask <<= 1 {
		mask := mask
		if vr&mask != 0 {
			s.step(func() error {
				wire, err := dtype.EncodeDense(acc)
				if err != nil {
					return err
				}
				return s.isend(unrel(vr-mask, root, c.Size), tagReduce, wire)
			})
			return // contribution forwarded; this member is done
		}
		if vr+mask < c.Size {
			s.recvStep(unrel(vr+mask, root, c.Size), tagReduce, func(got []byte) error {
				partial, err := dtype.DecodeDense(got, cls)
				if err != nil {
					return err
				}
				// acc holds lower-rank contributions: fold acc into
				// partial, then adopt partial as the accumulator.
				if err := op.Apply(acc, partial); err != nil {
					return err
				}
				acc = partial
				return nil
			})
		}
	}
	s.step(func() error { *out = acc; return nil })
}

// addOrderedReduceSteps gathers all contributions at root and folds
// them in strict rank order, as required for non-commutative
// operations.
func (c *Comm) addOrderedReduceSteps(s *sched, root int, mine *any, op *Op, out *any) {
	var wire []byte
	var blocks [][]byte
	s.step(func() error {
		w, err := dtype.EncodeDense(*mine)
		wire = w
		return err
	})
	c.addGatherSteps(s, root, &wire, &blocks)
	if rel(c.Rank, root, c.Size) != 0 {
		return
	}
	s.step(func() error {
		cls, _ := dtype.ClassOf(*mine)
		acc, err := dtype.DecodeDense(blocks[0], cls)
		if err != nil {
			return err
		}
		for r := 1; r < c.Size; r++ {
			next, err := dtype.DecodeDense(blocks[r], cls)
			if err != nil {
				return err
			}
			if err := op.Apply(acc, next); err != nil {
				return err
			}
			acc = next
		}
		*out = acc
		return nil
	})
}

// addAllreduceSteps schedules the all-reduction of *mine (valid at
// build, re-read per activation); at completion *out holds the folded
// dense slice on every member. Commutative ops use recursive doubling
// with the standard non-power-of-two pre/post folding; non-commutative
// ops reduce to rank 0 and broadcast.
func (c *Comm) addAllreduceSteps(s *sched, mine *any, op *Op, out *any) {
	cls, _ := dtype.ClassOf(*mine)
	if !op.Commutative {
		var res any
		c.addReduceSteps(s, 0, mine, op, &res)
		var wire []byte
		s.step(func() error {
			if c.Rank != 0 {
				return nil
			}
			w, err := dtype.EncodeDense(res)
			wire = w
			return err
		})
		c.addBcastSteps(s, 0, &wire)
		s.step(func() error {
			v, err := dtype.DecodeDense(wire, cls)
			if err != nil {
				return err
			}
			*out = v
			return nil
		})
		return
	}

	var acc any
	s.onReset(func() { acc = dtype.CloneDense(*mine) })
	p2 := 1
	for p2*2 <= c.Size {
		p2 *= 2
	}
	remainder := c.Size - p2

	newRank := -1
	switch {
	case c.Rank < 2*remainder && c.Rank%2 == 0:
		// Fold into the odd neighbour, then idle until the post-fold.
		s.step(func() error {
			wire, err := dtype.EncodeDense(acc)
			if err != nil {
				return err
			}
			return s.isend(c.Rank+1, tagReduce, wire)
		})
	case c.Rank < 2*remainder:
		s.recvStep(c.Rank-1, tagReduce, func(got []byte) error {
			lower, err := dtype.DecodeDense(got, cls)
			if err != nil {
				return err
			}
			return op.Apply(lower, acc)
		})
		newRank = c.Rank / 2
	default:
		newRank = c.Rank - remainder
	}

	realOf := func(nr int) int {
		if nr < remainder {
			return nr*2 + 1
		}
		return nr + remainder
	}

	if newRank >= 0 {
		for mask := 1; mask < p2; mask <<= 1 {
			partner := newRank ^ mask
			s.exchStep(realOf(partner), realOf(partner), tagReduce,
				func() ([]byte, error) { return dtype.EncodeDense(acc) },
				func(got []byte) error {
					theirs, err := dtype.DecodeDense(got, cls)
					if err != nil {
						return err
					}
					if partner < newRank {
						return op.Apply(theirs, acc)
					}
					if err := op.Apply(acc, theirs); err != nil {
						return err
					}
					acc = theirs
					return nil
				})
		}
	}

	// Post-fold: odd members of the front block return results to the
	// idled even members.
	if c.Rank < 2*remainder {
		if c.Rank%2 == 0 {
			s.recvStep(c.Rank+1, tagReduce, func(got []byte) error {
				v, err := dtype.DecodeDense(got, cls)
				if err != nil {
					return err
				}
				acc = v
				return nil
			})
		} else {
			s.step(func() error {
				wire, err := dtype.EncodeDense(acc)
				if err != nil {
					return err
				}
				return s.isend(c.Rank-1, tagReduce, wire)
			})
		}
	}
	s.step(func() error { *out = acc; return nil })
}

// addScanSteps schedules the rank-order prefix chain shared by Scan and
// Exscan (family selects the tag family, exclusive the variant): at
// completion *out holds the inclusive prefix (Scan) or the prefix of
// ranks 0..r-1 (Exscan; nil at rank 0, whose result is undefined per
// the standard). The chain preserves non-commutative operation order by
// construction.
func (c *Comm) addScanSteps(s *sched, family int, exclusive bool, mine *any, op *Op, out *any) {
	cls, _ := dtype.ClassOf(*mine)
	var prefix, incl any
	if c.Rank > 0 {
		s.recvStep(c.Rank-1, family, func(got []byte) error {
			var err error
			prefix, err = dtype.DecodeDense(got, cls)
			return err
		})
	}
	// The last rank's inclusive prefix is neither forwarded nor, in
	// exclusive mode, published — skip the clone-and-fold there.
	if !exclusive || c.Rank < c.Size-1 {
		s.step(func() error {
			incl = dtype.CloneDense(*mine)
			if c.Rank == 0 {
				return nil
			}
			return op.Apply(prefix, incl)
		})
	}
	if c.Rank < c.Size-1 {
		s.step(func() error {
			wire, err := dtype.EncodeDense(incl)
			if err != nil {
				return err
			}
			return s.isend(c.Rank+1, family, wire)
		})
	}
	s.step(func() error {
		if exclusive {
			*out = prefix
		} else {
			*out = incl
		}
		return nil
	})
}

// addReduceScatterSteps schedules the fold-then-scatter: member r ends
// up with (*counts)[r] elements of the result in *out.
func (c *Comm) addReduceScatterSteps(s *sched, mine *any, counts *[]int, op *Op, out *any) {
	var res any
	c.addReduceSteps(s, 0, mine, op, &res)
	var parts [][]byte
	s.step(func() error {
		if c.Rank != 0 {
			return nil
		}
		parts = make([][]byte, c.Size)
		lo := 0
		for r, n := range *counts {
			seg := dtype.SliceDense(res, lo, lo+n)
			w, err := dtype.EncodeDense(seg)
			if err != nil {
				return err
			}
			parts[r] = w
			lo += n
		}
		return nil
	})
	var wire []byte
	c.addScatterSteps(s, 0, &parts, &wire)
	s.step(func() error {
		cls, _ := dtype.ClassOf(*mine)
		v, err := dtype.DecodeDense(wire, cls)
		if err != nil {
			return err
		}
		*out = v
		return nil
	})
}

// ---------------------------------------------------------------------
// Calls. A collective call is a value: its kind, the parameters its
// schedule is compiled for, and the inputs each run reads. Three
// executors take it — Run (blocking, on the caller, re-running the
// communicator's cached schedule), Start (nonblocking, on the shared
// progress pool) and Init (persistent, re-reading the record on every
// Start) — and all of them go through one validate and one build, and
// mint exactly one instance per call, whether the call compiles a
// schedule, re-runs a cached one or fails validation, so the sequence
// advances in step on every member.
// ---------------------------------------------------------------------

// Kind names a collective operation.
type Kind uint8

const (
	KindBarrier Kind = iota
	KindBcast
	KindGather
	KindScatter
	KindAllgather
	KindAlltoall
	KindReduce
	KindAllreduce
	KindScan
	KindExscan
	KindReduceScatter
	numKinds
)

// Call is one collective call. Kind, Root and Op (with the element
// class of Dense) fix the compiled schedule; the inputs are read
// through the record by every run, so a persistent schedule sees what
// the caller re-packs into its record before each Start. Each kind
// reads only its own fields:
//
//   - Bcast: Root, Data (significant at root); result []byte everywhere.
//   - Gather: Root, Data; result [][]byte by group rank at root, nil
//     elsewhere.
//   - Scatter: Root, Parts by group rank (significant at root); result
//     this member's []byte. Blocks may differ in size (Scatterv).
//   - Allgather: Data; result [][]byte by group rank (Allgatherv).
//   - Alltoall: Parts, Parts[j] going to member j; result the [][]byte
//     received from every member (Alltoallv).
//   - Reduce: Root, Op, Dense; result the folded dense slice at root,
//     nil elsewhere.
//   - Allreduce: Op, Dense; result the folded dense slice everywhere.
//   - Scan, Exscan: Op, Dense; result member r's fold over ranks 0..r
//     (Scan) or 0..r-1 (Exscan; nil at rank 0, whose result is
//     undefined). Both fold in rank order.
//   - ReduceScatter: Op, Dense, Counts; result member r's Counts[r]
//     elements of the fold.
//
// A dense operand must be valid when the schedule is compiled: its
// class fixes the algorithm.
type Call struct {
	Kind Kind
	Root int
	Op   *Op

	Data   []byte
	Parts  [][]byte
	Dense  any
	Counts []int
}

// validate checks a call's arguments against the communicator.
func (c *Comm) validate(in *Call) error {
	switch in.Kind {
	case KindBcast, KindGather, KindReduce:
		return c.check(in.Root)
	case KindScatter:
		if err := c.check(in.Root); err != nil {
			return err
		}
		if c.Rank == in.Root && len(in.Parts) != c.Size {
			return fmt.Errorf("coll: scatter with %d parts for %d ranks", len(in.Parts), c.Size)
		}
	case KindAlltoall:
		if len(in.Parts) != c.Size {
			return fmt.Errorf("coll: alltoall with %d parts for %d ranks", len(in.Parts), c.Size)
		}
	case KindReduceScatter:
		if len(in.Counts) != c.Size {
			return fmt.Errorf("coll: reduce_scatter with %d counts for %d ranks", len(in.Counts), c.Size)
		}
	case KindBarrier, KindAllgather, KindAllreduce, KindScan, KindExscan:
	default:
		return fmt.Errorf("coll: unknown collective kind %d", in.Kind)
	}
	return nil
}

// build compiles a validated call into s: the algorithm's steps plus
// the final step that publishes its result. Root and Op are read here,
// once; the steps read the inputs through in on every run.
func (c *Comm) build(s *sched, in *Call) {
	switch in.Kind {
	case KindBarrier:
		c.addBarrierSteps(s)
	case KindBcast:
		c.addBcastSteps(s, in.Root, &in.Data)
		s.publish(func() any { return in.Data })
	case KindGather:
		var blocks [][]byte
		c.addGatherSteps(s, in.Root, &in.Data, &blocks)
		s.publish(func() any { return blocks })
	case KindScatter:
		var out []byte
		c.addScatterSteps(s, in.Root, &in.Parts, &out)
		s.publish(func() any { return out })
	case KindAllgather:
		var blocks [][]byte
		c.addAllgatherSteps(s, tagAllgather, &in.Data, &blocks)
		s.publish(func() any { return blocks })
	case KindAlltoall:
		var blocks [][]byte
		c.addAlltoallSteps(s, tagAlltoall, &in.Parts, &blocks)
		s.publish(func() any { return blocks })
	default:
		var res any
		switch in.Kind {
		case KindReduce:
			c.addReduceSteps(s, in.Root, &in.Dense, in.Op, &res)
		case KindAllreduce:
			c.addAllreduceSteps(s, &in.Dense, in.Op, &res)
		case KindScan:
			c.addScanSteps(s, tagScan, false, &in.Dense, in.Op, &res)
		case KindExscan:
			c.addScanSteps(s, tagExscan, true, &in.Dense, in.Op, &res)
		case KindReduceScatter:
			c.addReduceScatterSteps(s, &in.Dense, &in.Counts, in.Op, &res)
		}
		s.publish(func() any { return res })
	}
}

// compile mints a call's instance, then validates the call and compiles
// a fresh schedule that reads its inputs through in.
func (c *Comm) compile(in *Call) (*sched, error) {
	s := c.newSched()
	if err := c.validate(in); err != nil {
		return nil, err
	}
	c.build(s, in)
	return s, nil
}

// Run executes a call to completion on the calling goroutine (the
// blocking form), re-running the communicator's cached schedule for the
// call's kind when it was compiled for the same shape (cache.go).
func (c *Comm) Run(call Call) (any, error) {
	inst := c.mint()
	if err := c.validate(&call); err != nil {
		return nil, err
	}
	return c.runCached(inst, call)
}

// Start compiles a call into a fresh schedule and launches it on the
// shared progress pool (the nonblocking form); the request completes
// with the call's result.
func (c *Comm) Start(call Call) (*Request, error) {
	s, err := c.compile(&call)
	if err != nil {
		return nil, err
	}
	return s.start(), nil
}

// result unwraps a blocking call's result as its kind's result type.
func result[T any](res any, err error) (T, error) {
	v, _ := res.(T)
	return v, err
}

// The named blocking forms below are Run with the call spelled out, for
// callers inside the runtime (intercommunicators, dynamic processes,
// agreement, file opens).

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() error {
	_, err := c.Run(Call{Kind: KindBarrier})
	return err
}

// Bcast distributes root's payload to every member along a binomial
// tree and returns it (the root gets its own slice back).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	return result[[]byte](c.Run(Call{Kind: KindBcast, Root: root, Data: data}))
}

// Gather collects every member's block at root along a binomial tree.
func (c *Comm) Gather(root int, mine []byte) ([][]byte, error) {
	return result[[][]byte](c.Run(Call{Kind: KindGather, Root: root, Data: mine}))
}

// Scatter distributes parts along a binomial tree; every member returns
// its own block.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	return result[[]byte](c.Run(Call{Kind: KindScatter, Root: root, Parts: parts}))
}

// Allgather collects every member's block at every member.
func (c *Comm) Allgather(mine []byte) ([][]byte, error) {
	return result[[][]byte](c.Run(Call{Kind: KindAllgather, Data: mine}))
}

// Alltoall delivers parts[j] to member j and returns the blocks
// received from every member.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	return result[[][]byte](c.Run(Call{Kind: KindAlltoall, Parts: parts}))
}

// Reduce folds every member's dense slice with op, leaving the result
// at root.
func (c *Comm) Reduce(root int, mine any, op *Op) (any, error) {
	return c.Run(Call{Kind: KindReduce, Root: root, Op: op, Dense: mine})
}

// Allreduce folds every member's dense slice with op and returns the
// result at every member.
func (c *Comm) Allreduce(mine any, op *Op) (any, error) {
	return c.Run(Call{Kind: KindAllreduce, Op: op, Dense: mine})
}

// Scan computes the inclusive prefix reduction in rank order.
func (c *Comm) Scan(mine any, op *Op) (any, error) {
	return c.Run(Call{Kind: KindScan, Op: op, Dense: mine})
}

// Exscan computes the exclusive prefix reduction in rank order (the
// MPI-2 extension the paper's §5.3 targets).
func (c *Comm) Exscan(mine any, op *Op) (any, error) {
	return c.Run(Call{Kind: KindExscan, Op: op, Dense: mine})
}

// ReduceScatter folds with op, then scatters consecutive segments of
// the result: member r receives counts[r] elements.
func (c *Comm) ReduceScatter(mine any, counts []int, op *Op) (any, error) {
	return c.Run(Call{Kind: KindReduceScatter, Op: op, Dense: mine, Counts: counts})
}

// AgreeContextBase agrees on a context-id base for a new communicator:
// the max of all members' local candidates, via Allreduce over this
// (parent) communicator's collective context.
func (c *Comm) AgreeContextBase() (int32, error) {
	cand := []int32{c.P.AllocContexts()}
	res, err := c.Allreduce(cand, Max)
	if err != nil {
		return 0, err
	}
	base := res.([]int32)[0]
	c.P.CommitContexts(base)
	return base, nil
}
