package coll

import (
	"fmt"
	"sync"
)

// Persistent is a re-runnable collective schedule — the engine half of
// MPI-4 persistent collectives. Init validates and compiles the call
// once, in program order like any collective call, and Start then
// activates it any number of times on the shared progress pool.
//
// The schedule reads its inputs through the caller's record on each
// activation, so the binding layer can re-pack the user's (fixed)
// buffers into it before every Start — MPI's persistent-operation
// contract. The instance number is minted once and reused: a member
// must complete activation k before starting k+1 (Start enforces it
// locally), which keeps successive activations' traffic aligned
// pair-wise without a new instance.
type Persistent struct {
	s *sched

	mu     sync.Mutex
	active *Request
	err    error // poisoned: set once the operation can no longer restart
}

// Init compiles a persistent collective from the record call points
// to; the record must stay valid for the operation's lifetime.
func (c *Comm) Init(call *Call) (*Persistent, error) {
	s, err := c.compile(call)
	if err != nil {
		return nil, err
	}
	return &Persistent{s: s}, nil
}

// Start begins a new activation and returns its request. The previous
// activation must have completed (ErrActive otherwise); an activation
// that completed with an error — cancellation, peer loss, revocation —
// poisons the operation, and every later Start returns that error.
func (p *Persistent) Start() (*Request, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, p.err
	}
	if p.active != nil {
		_, done, err := p.active.Test()
		if !done {
			return nil, ErrActive
		}
		if err != nil {
			p.err = fmt.Errorf("coll: persistent operation poisoned by failed activation: %w", err)
			return nil, p.err
		}
	}
	p.s.rearm()
	p.active = p.s.req
	sharedPool.enqueue(p.s)
	return p.active, nil
}
