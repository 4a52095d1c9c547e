package coll

import (
	"sync"

	"gompi/internal/dtype"
)

// Blocking collective kinds, each with one cached schedule per
// communicator (Comm.slots).
const (
	kindBarrier = iota
	kindBcast
	kindGather
	kindScatter
	kindAllgather
	kindAlltoall
	kindReduce
	kindAllreduce
	kindScan
	kindExscan
	kindReduceScatter
	numKinds
)

// shape is what a compiled schedule depends on beyond the communicator
// and the collective kind: the root, the operation, and the dense class
// of the contribution. Two calls of one kind with equal shapes compile
// to the same steps.
type shape struct {
	root int
	op   *Op
	cls  dtype.Class
}

func denseShape(root int, op *Op, mine any) shape {
	cls, _ := dtype.ClassOf(mine)
	return shape{root: root, op: op, cls: cls}
}

// ins holds one blocking call's inputs; a schedule's steps read them
// through pointers into it, so a cached schedule sees each call's
// inputs.
type ins struct {
	data   []byte
	parts  [][]byte
	dense  any
	counts []int
}

// slot is one collective kind's cached blocking schedule. mu is held
// for the length of a run; a call that finds it held compiles a
// one-shot schedule instead of waiting. The inputs are cleared after
// each run, but the schedule's result variables keep the last result
// reachable until the next run of the kind rebinds them.
type slot struct {
	mu    sync.Mutex
	s     *sched // nil until the first call, and after a failed run
	shape shape
	in    ins
}

// runCached runs one blocking collective of kind k to completion on the
// calling goroutine. When the kind's cached schedule was compiled for
// the same shape it is re-run under a freshly minted instance;
// otherwise build compiles a new one (reading its inputs through in)
// that replaces it. Hit or miss, the call mints exactly one instance,
// so members stay tag-aligned whichever of them rebuilt.
func (c *Comm) runCached(k int, sh shape, in ins, build func(s *sched, in *ins)) (any, error) {
	sl := &c.slots[k]
	if !sl.mu.TryLock() {
		// Another blocking call of this kind is running on the
		// communicator (concurrent callers): give this one its own.
		s, cell := c.newSched(), in
		build(s, &cell)
		return s.runBlocking()
	}
	defer sl.mu.Unlock()
	inst := c.mint()
	sl.in = in
	if sl.s != nil && sl.shape == sh {
		sl.s.reuse(inst)
	} else {
		sl.s, sl.shape = c.schedFor(inst), sh
		build(sl.s, &sl.in)
	}
	res, err := sl.s.runBlocking()
	sl.in = ins{}
	if err != nil {
		// A failed run may leave operations in flight against its
		// steps; never re-arm it.
		sl.s = nil
	}
	return res, err
}
