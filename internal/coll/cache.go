package coll

import (
	"sync"

	"gompi/internal/dtype"
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

func (in *Call) shape() shape {
	cls, _ := dtype.ClassOf(in.Dense)
	return shape{root: in.Root, op: in.Op, cls: cls}
}

// slot is one collective kind's cached blocking schedule (Comm.slots).
// mu is held for the length of a run; a call that finds it held
// compiles a one-shot schedule instead of waiting. The schedule's steps
// read the inputs through in, which holds the running call and is
// cleared after each run; the schedule's result variables keep the last
// result reachable until the next run of the kind rebinds them.
type slot struct {
	mu    sync.Mutex
	s     *sched // nil until the first call, and after a failed run
	shape shape
	in    Call
}

// runCached runs a validated blocking call to completion on the calling
// goroutine as instance inst. When the kind's cached schedule was
// compiled for the same shape it is re-run; otherwise a new one,
// reading its inputs through the slot, replaces it. Hit or miss the
// call runs under the one instance it minted, so members stay
// tag-aligned whichever of them rebuilt.
func (c *Comm) runCached(inst uint32, call Call) (any, error) {
	sl := &c.slots[call.Kind]
	if !sl.mu.TryLock() {
		// Another blocking call of this kind is running on the
		// communicator (concurrent callers): give this one its own.
		s, cell := c.schedFor(inst), call
		c.build(s, &cell)
		return s.runBlocking()
	}
	defer sl.mu.Unlock()
	sl.in = call
	if sh := call.shape(); sl.s != nil && sl.shape == sh {
		sl.s.reuse(inst)
	} else {
		sl.s, sl.shape = c.schedFor(inst), sh
		c.build(sl.s, &sl.in)
	}
	res, err := sl.s.runBlocking()
	sl.in = Call{}
	if err != nil {
		// A failed run may leave operations in flight against its
		// steps; never re-arm it.
		sl.s = nil
	}
	return res, err
}
