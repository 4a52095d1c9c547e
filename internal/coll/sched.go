package coll

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/core"
	"gompi/internal/obs"
)

// ErrCancelled is the completion error of a collective schedule that was
// torn down by context cancellation before it finished.
var ErrCancelled = errors.New("coll: collective cancelled")

// ErrActive is returned by Persistent.Start when the previous activation
// of the operation has not completed yet.
var ErrActive = errors.New("coll: previous activation still in progress")

// Request is a handle on an in-flight collective schedule. It completes
// exactly once, with the algorithm's result (shape depends on the
// collective) or an error; Wait, Test and WaitCtx may be called from any
// goroutine, concurrently. Requests handed out by the nonblocking entry
// points always carry their channels; schedules run by a blocking caller
// keep them nil and never escape.
type Request struct {
	done     chan struct{}
	cancelCh chan struct{}
	cancel   sync.Once

	// s is the schedule this request completes; cancellation pokes it so
	// a parked schedule wakes up and observes the cancel.
	s *sched

	// Written by the schedule runner before done is closed.
	res any
	err error
}

// Wait blocks until the collective completes on this member and returns
// its result.
func (r *Request) Wait() (any, error) {
	<-r.done
	return r.res, r.err
}

// Test reports whether the collective has completed, returning the
// result if so.
func (r *Request) Test() (any, bool, error) {
	select {
	case <-r.done:
		return r.res, true, r.err
	default:
		return nil, false, nil
	}
}

// WaitCtx blocks until the collective completes or ctx is done. When ctx
// fires first the schedule is cancelled at its next cancellation point —
// every send/receive wait inside the algorithm is one — and WaitCtx
// returns ctx's error promptly, even when a peer never shows up.
//
// Cancellation abandons this member's participation in the collective
// instance: sends already posted stay with the engine (peers that
// progressed past them are unaffected), unposted rounds never run. Later
// collectives on the same communicator are isolated from the abandoned
// instance by its per-instance tag, but the MPI ordering rule still
// stands: every member must eventually make the same collective call,
// cancelled or not, or the members' schedules stop lining up.
//
// One caveat bounds the recovery guarantee: the abandoned member posts
// no further receives for the instance, so a payload above the eager
// limit still owed to it leaves the late sender's rendezvous — and with
// it that rank's matching (blocking) call — stalled forever. Ranks that
// mix cancellation into a communicator should use the cancellable *Ctx
// forms on every member, or keep cancellable collectives' payloads
// within the eager limit.
func (r *Request) WaitCtx(ctx context.Context) (any, error) {
	select {
	case <-r.done:
		return r.res, r.err
	default:
	}
	select {
	case <-r.done:
		return r.res, r.err
	case <-ctx.Done():
		r.cancel.Do(func() {
			close(r.cancelCh)
			if r.s != nil {
				r.s.cancelGated()
			}
		})
		<-r.done
		switch {
		case r.err == nil:
			// The schedule won the race and completed normally.
			return r.res, nil
		case errors.Is(r.err, ErrCancelled):
			return nil, ctx.Err()
		default:
			// A genuine schedule failure raced the deadline; do not
			// mask it as a clean timeout.
			return nil, r.err
		}
	}
}

// fut is the seam between a step that posts a nonblocking operation and
// the later step that consumes it: the posting step fills req, the
// consuming step is gated on its completion and empties it again (so a
// persistent schedule can refill it on the next activation).
type fut struct {
	req *core.Request
}

// step is one unit of a collective schedule. run posts nonblocking
// operations and folds received data into the algorithm's state; a step
// with a gate does not run until the gated operation has completed, so
// run never blocks on message arrival — the executor parks the whole
// schedule instead.
type step struct {
	gate *fut
	run  func() error
}

// sched is one collective operation's schedule: the ordered steps the
// algorithm compiled into, the progress state they share, and the sends
// still in flight. A schedule is compiled synchronously inside the
// collective call (so instance numbers are minted in program order on
// every member) and then executed by run — on the calling goroutine for
// the blocking entry points, on the shared progress pool for the
// nonblocking and persistent ones — parking, not blocking its executor,
// whenever it waits for a message. Steps name only tag families; the
// matching tag is formed from inst when an operation is posted, so a
// blocking caller can re-run a cached schedule under a fresh instance.
type sched struct {
	c      *Comm
	inst   uint32 // the current activation's instance sequence number
	req    *Request
	steps  []step
	resets []func()        // per-activation state initializers, run by arm
	pc     int             // index of the next step to run
	pend   []*core.Request // outstanding isends, drained at the end
	res    any             // published to req on successful completion

	// Parking state. While the schedule is parked, gated holds the
	// incomplete operations it waits for (guarded by gmu, so a
	// cancelling goroutine can poke them without racing the executor)
	// and waits counts the completions still owed before the schedule
	// becomes runnable again. gated is built in gbuf, so a park
	// allocates nothing.
	gmu   sync.Mutex
	gated []*core.Request
	gbuf  [4]*core.Request
	waits atomic.Int32
	wake  func() // bound once; decrements waits, resumes at zero

	// resume is the blocking caller's wake-up channel (nil for pooled
	// schedules): a resumed schedule signals it instead of enqueueing on
	// the pool, and the caller runs the schedule on.
	resume chan struct{}

	// t0 is the activation's arm time, feeding the "coll.sched_ns"
	// timing variable on finish.
	t0 time.Time
}

// newSched builds an empty schedule and mints its instance number —
// unconditionally, before any validation, so the sequence advances by
// exactly one per collective call on every member regardless of local
// outcomes.
func (c *Comm) newSched() *sched { return c.schedFor(c.mint()) }

// mint consumes the communicator's next collective instance number.
func (c *Comm) mint() uint32 { return c.seq.Add(1) - 1 }

// schedFor builds an empty schedule for instance inst. The request's
// channels stay nil until start(): blocking callers never select on
// them, and a nil cancelCh behaves like "never cancelled" — so a
// blocking collective pays no channel allocations.
func (c *Comm) schedFor(inst uint32) *sched {
	s := &sched{c: c, inst: inst}
	s.req = &Request{s: s}
	s.wake = func() {
		// Runs under the engine lock (completion callback); counter
		// bump and trace record are single atomic operations, and
		// neither the one-slot send nor enqueue blocks.
		if s.waits.Add(-1) == 0 {
			s.c.vars().resumed.Inc()
			s.c.P.Recorder().Instant(obs.EvCollResume, s.inst, int64(sharedPool.busy.Load()))
			if s.resume != nil {
				s.resume <- struct{}{}
			} else {
				sharedPool.enqueue(s)
			}
		}
	}
	return s
}

// tag forms the matching tag of one family under the current
// activation's instance; isend and the receive posts call it at post
// time. Composed schedules (reduce-scatter, ordered allreduce) use
// several families under one instance number; no composition uses a
// family twice, so tags stay unique within the instance.
func (s *sched) tag(family int) int {
	return int(s.inst%seqPeriod)<<tagFamBits | family
}

func (s *sched) step(fn func() error) { s.steps = append(s.steps, step{run: fn}) }

// onReset registers a per-activation state initializer. Builders route
// every piece of mutable algorithm state they would otherwise initialize
// at build time through a reset, which makes the schedule re-runnable:
// one-shot schedules arm once, persistent ones re-arm on every Start.
func (s *sched) onReset(fn func()) { s.resets = append(s.resets, fn) }

// arm runs the registered resets, initializing the activation's state.
// Every activation passes through here exactly once — one-shot or
// persistent, blocking or pooled — so it is also where the activation's
// span opens.
func (s *sched) arm() {
	for _, fn := range s.resets {
		fn()
	}
	s.c.vars().started.Inc()
	s.t0 = time.Now()
	s.c.P.Recorder().Begin(obs.EvCollSched, s.inst, 0)
}

// rearm prepares a fresh activation of an already-run schedule: a new
// request (the old one stays valid for its completed activation), the
// program counter back at the top, and re-initialized algorithm state.
// The instance number — and with it every matching tag — is reused:
// persistent activations are aligned across members by the rule that
// each member completes activation k before starting k+1, so round k+1
// traffic can never cross-match round k's.
func (s *sched) rearm() {
	s.req = &Request{s: s, done: make(chan struct{}), cancelCh: make(chan struct{})}
	s.rewind()
	s.arm()
}

// reuse readies a blocking schedule that ran to completion for its
// next activation, as instance inst: every tag it posts is formed from
// inst. Its request never escaped the blocking caller, so it is reset
// in place.
func (s *sched) reuse(inst uint32) {
	s.inst = inst
	s.req.res, s.req.err = nil, nil
	s.rewind()
}

// rewind puts the program counter back at the top and drops the last
// result. Only a completed activation is rewound, and its drain left
// pend empty with the backing array kept for the next one's sends.
func (s *sched) rewind() {
	s.pc = 0
	s.res = nil
}

// publish appends the final step that snapshots the algorithm's result.
func (s *sched) publish(get func() any) {
	s.step(func() error { s.res = get(); return nil })
}

// recvStep appends a post step and a gated consume step: the receive of
// tag family fam is posted nonblockingly, and fn runs — with the
// payload, ownership transferred out of the engine — only once it has
// completed, without ever blocking an executor.
func (s *sched) recvStep(src, fam int, fn func([]byte) error) {
	f := &fut{}
	s.steps = append(s.steps, step{run: func() error {
		f.req = s.c.P.Irecv(s.c.Ctx, int32(src), int32(s.tag(fam)))
		return nil
	}})
	s.steps = append(s.steps, step{gate: f, run: func() error {
		b, err := s.takeRecv(f)
		if err != nil {
			return err
		}
		return fn(b)
	}})
}

// exchStep appends a concurrent exchange with two (possibly distinct)
// partners, the building block of the symmetric algorithms: one step
// posts the send (payload computed at post time by out) and the
// receive, both of tag family fam, and a gated step consumes the
// received payload. The send's completion is left to the drain.
func (s *sched) exchStep(dst, src, fam int, out func() ([]byte, error), fn func([]byte) error) {
	f := &fut{}
	s.steps = append(s.steps, step{run: func() error {
		b, err := out()
		if err != nil {
			return err
		}
		if err := s.isend(dst, fam, b); err != nil {
			return err
		}
		f.req = s.c.P.Irecv(s.c.Ctx, int32(src), int32(s.tag(fam)))
		return nil
	}})
	s.steps = append(s.steps, step{gate: f, run: func() error {
		b, err := s.takeRecv(f)
		if err != nil {
			return err
		}
		return fn(b)
	}})
}

// takeRecv consumes a completed gated receive: surfaces its completion
// error, transfers the payload out of the engine, and recycles the
// request (emptying the future for the next activation).
func (s *sched) takeRecv(f *fut) ([]byte, error) {
	req := f.req
	f.req = nil
	st := &req.Stat
	if st.Cancelled {
		req.Recycle()
		return nil, errors.New("coll: receive cancelled")
	}
	if rerr := st.Err; rerr != nil {
		// A peer died or the communicator was revoked mid-schedule:
		// surface it rather than fold a nil payload into the algorithm.
		req.Recycle()
		return nil, rerr
	}
	// Payload lifetime is unbounded here (algorithms forward and stash
	// blocks), so take it out of the request before recycling.
	b := req.TakePayload()
	req.Recycle()
	return b, nil
}

// start launches the schedule on the shared progress pool and returns
// the request (the nonblocking entry points). The completion and
// cancellation channels are created here, before the schedule is
// enqueued, so every escaping request has them.
func (s *sched) start() *Request {
	s.req.done = make(chan struct{})
	s.req.cancelCh = make(chan struct{})
	s.arm()
	sharedPool.enqueue(s)
	return s.req
}

// resumeChans recycles the blocking callers' one-slot resume channels,
// keeping the blocking entry points allocation-free.
var resumeChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// runBlocking executes the schedule to completion on the calling
// goroutine (the blocking entry points). The caller is the schedule's
// executor: it runs the same loop a pool worker does, and while the
// schedule is parked it sleeps on its resume channel, which the wake-up
// signals instead of enqueueing on the pool.
func (s *sched) runBlocking() (any, error) {
	s.resume = resumeChans.Get().(chan struct{})
	s.arm()
	for !s.run() {
		<-s.resume
	}
	resumeChans.Put(s.resume)
	return s.req.res, s.req.err
}

// run executes the schedule until it finishes or parks, reporting true
// when the activation has finished (successfully or not). A parked
// schedule is resumed by the completion callback of the last operation
// it gates on; its executor then calls run again, which continues at
// the same program counter.
func (s *sched) run() bool {
	// The previous park's gate list is stale the moment we are running
	// again; clear it before any gated request can be consumed, so a
	// concurrent canceller never pokes a recycled request.
	s.gmu.Lock()
	s.gated = nil
	s.gmu.Unlock()
	for {
		if s.cancelled() {
			s.fail(ErrCancelled)
			return true
		}
		if s.pc < len(s.steps) {
			st := s.steps[s.pc]
			if st.gate != nil && st.gate.req != nil {
				if _, done := st.gate.req.Test(); !done {
					if s.park(append(s.gbuf[:0], st.gate.req)) {
						return false
					}
				}
			}
			if err := st.run(); err != nil {
				s.fail(err)
				return true
			}
			s.pc++
			continue
		}
		// Steps exhausted: drain the outstanding sends.
		waitFor := s.gbuf[:0]
		for _, r := range s.pend {
			if _, done := r.Test(); !done {
				waitFor = append(waitFor, r)
			}
		}
		if len(waitFor) > 0 {
			if s.park(waitFor) {
				return false
			}
			continue // completed while parking; re-check from the top
		}
		var err error
		for _, r := range s.pend {
			if err == nil && r.Stat.Err != nil {
				err = r.Stat.Err // send failed (peer loss, revocation)
			}
			r.Recycle()
		}
		clear(s.pend)
		s.pend = s.pend[:0]
		if err != nil {
			s.fail(err)
			return true
		}
		s.finish(nil)
		return true
	}
}

// park suspends the schedule until every request in reqs has completed.
// It returns true when the schedule is genuinely parked — the executor
// must return, and the last completion callback resumes the schedule —
// or false when everything completed while parking, in which case the
// executor just continues. The +1 guard below makes the resume decision
// race-free: the callbacks and the final Add together reach zero
// exactly once, wherever the completions land.
func (s *sched) park(reqs []*core.Request) bool {
	s.gmu.Lock()
	s.gated = reqs
	s.gmu.Unlock()
	s.waits.Store(int32(len(reqs)) + 1)
	for _, r := range reqs {
		r.OnDone(s.wake)
	}
	if s.cancelled() {
		// The cancel may have arrived before gated was published; poke
		// the gated operations ourselves so the park is bounded.
		s.cancelGated()
	}
	if s.waits.Add(-1) == 0 {
		s.gmu.Lock()
		s.gated = nil
		s.gmu.Unlock()
		return false
	}
	s.c.vars().parked.Inc()
	s.c.P.Recorder().Instant(obs.EvCollPark, s.inst, int64(len(reqs)))
	return true
}

// cancelGated pokes a parked schedule's gated operations: still-
// revocable ones complete as cancelled immediately; matched ones are
// left to their imminent ordinary completion. Either way each gated
// request's completion callback still fires, so the schedule wakes,
// observes the cancellation and aborts. Holding gmu across the Cancel
// calls pins the gate list: the executor clears it (under gmu) before
// recycling any gated request, so a concurrent resume cannot recycle a
// request out from under us.
func (s *sched) cancelGated() {
	s.gmu.Lock()
	for _, r := range s.gated {
		s.c.P.Cancel(r)
	}
	s.gmu.Unlock()
}

func (s *sched) cancelled() bool {
	select {
	case <-s.req.cancelCh:
		return true
	default:
		return false
	}
}

// finish completes the activation's request.
func (s *sched) finish(err error) {
	if !s.t0.IsZero() {
		// t0 is zero when a schedule fails before arming (argument
		// validation); only armed activations count toward the timing.
		s.c.vars().schedNs.Observe(time.Since(s.t0))
		s.c.P.Recorder().End(obs.EvCollSched, s.inst, 0)
	}
	if err == nil {
		s.req.res = s.res
	}
	s.req.err = err
	if s.req.done != nil {
		close(s.req.done)
	}
}

// fail tears the schedule down after an error or cancellation and
// completes the request with err.
func (s *sched) fail(err error) {
	s.abortGate()
	s.abort()
	s.finish(err)
}

// abortGate disposes of the current step's gated receive, if any: a
// completed one is recycled, an in-flight one is cancelled when the
// engine still can (and otherwise left to complete in the background,
// reclaimed by the garbage collector).
func (s *sched) abortGate() {
	if s.pc >= len(s.steps) {
		return
	}
	f := s.steps[s.pc].gate
	if f == nil || f.req == nil {
		return
	}
	r := f.req
	f.req = nil
	if s.c.P.Cancel(r) {
		r.Recycle()
		return
	}
	if _, done := r.Test(); done {
		r.Recycle()
	}
}

// isend posts a standard-mode send of tag family fam on the schedule's
// context and tracks it for the completion drain. Collective payloads
// never carry the exclusive-ownership recycle promise: algorithms fan
// one buffer out to several destinations and forward received payloads.
func (s *sched) isend(dst, fam int, b []byte) error {
	req, err := s.c.P.Isend(s.c.Ctx, s.c.Rank, s.c.World(dst), s.tag(fam), b, core.ModeStandard, false)
	if err != nil {
		return err
	}
	s.pend = append(s.pend, req)
	return nil
}

// abort tears down the outstanding sends after an error or
// cancellation: still-revocable sends (ungranted rendezvous) are
// cancelled and recycled; sends already with the engine are left to
// complete in the background (eager sends already have).
func (s *sched) abort() {
	for _, r := range s.pend {
		if s.c.P.Cancel(r) {
			r.Recycle()
			continue
		}
		if _, done := r.Test(); done {
			r.Recycle()
		}
		// Else: in flight; the engine completes it later and the
		// request is reclaimed by the garbage collector.
	}
	s.pend = nil
}
