// Package transport is the device layer of the message-passing runtime —
// the analogue of MPICH's abstract device interface / the p4 layer under
// WMPI in the paper. A Device moves opaque, framed byte messages between
// the processes of a job with reliable, per-(sender,receiver) FIFO
// ordering. The media are:
//
//   - chan: in-process channels (ShmDevice); the paper's Shared Memory
//     (SM) mode, every rank a goroutine of one address space.
//   - shm: a cross-process shared-memory segment (package shmipc).
//   - tcp: one socket link (FramedConn) per peer; the paper's
//     Distributed Memory (DM) mode.
//
// Hybrid is the single place where receive streams merge: a Device over
// a route table naming the Link that carries each rank's traffic. A
// socket mesh is a Hybrid of links, a multi-node job's table mixes an
// shm island with links, and the dynamic-process fabric grows a table
// as late joiners arrive. Shaped (emulated link costs for the paper's
// 1999 testbed) and Faulty (deterministic fault injection) decorate any
// Device.
package transport

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by device operations after Close.
var ErrClosed = errors.New("transport: device closed")

// PeerLostError reports that a specific peer endpoint died without a
// clean shutdown: its connection reset mid-stream, or its process
// disappeared while frames were outstanding. Recv returns it (once per
// lost peer) without closing the device, so the progress engine can
// fail the operations pending on that peer and keep serving the rest —
// the error-class-instead-of-hang half of fault tolerance.
type PeerLostError struct {
	// Peer is the lost endpoint's world rank.
	Peer int
	// Err is the underlying transport failure, if any.
	Err error
}

func (e *PeerLostError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("transport: peer rank %d lost", e.Peer)
	}
	return fmt.Sprintf("transport: peer rank %d lost: %v", e.Peer, e.Err)
}

func (e *PeerLostError) Unwrap() error { return e.Err }

// Frame is one received message. Data holds the wire header and, when
// Payload is nil, the inline payload too; a non-nil Payload is the
// message body delivered separately (the scatter-gather path — by
// reference over shm, so the receiver reads the sender's buffer with no
// intermediate copy). The receiver owns the frame and must call Release
// exactly once when every reference into Data/Payload is dead; Release
// returns pooled storage to the frame pool and is idempotent on the same
// Frame value.
type Frame struct {
	Data    []byte
	Payload []byte

	pooledData    bool
	pooledPayload bool
}

// Release returns the frame's pooled storage (if any) to the frame pool
// and clears the frame. Calling Release again on the same Frame value is
// a no-op; releasing two copies of one Frame is a caller bug, as it
// would double-free the storage into the pool.
func (f *Frame) Release() {
	if f.pooledData {
		PutBuf(f.Data)
	}
	if f.pooledPayload {
		PutBuf(f.Payload)
	}
	*f = Frame{}
}

// PayloadPooled reports whether Release will return the payload to the
// frame pool (diagnostics and tests).
func (f *Frame) PayloadPooled() bool { return f.pooledPayload }

// PooledFrame assembles a received frame for a device implementation
// living outside this package (e.g. transport/shmipc): data and payload
// carry the pool-ownership marks Release honours.
func PooledFrame(data, payload []byte, pooledData, pooledPayload bool) Frame {
	return Frame{Data: data, Payload: payload, pooledData: pooledData, pooledPayload: pooledPayload}
}

// DetachPayload transfers ownership of the payload out of the frame and
// releases whatever storage does not back it: for a scatter-gather
// frame the header buffer returns to the pool immediately, while an
// inline payload shares the frame's storage, so everything stays with
// the caller's alias and nothing is pooled. Either way the frame is
// cleared and a later Release is a no-op.
func (f *Frame) DetachPayload() {
	if f.Payload != nil {
		f.Payload = nil
		f.pooledPayload = false
		f.Release()
		return
	}
	*f = Frame{}
}

// Device is one endpoint of a job-wide message fabric. Frames are
// delivered reliably and in order per (sender, receiver) pair.
type Device interface {
	// Rank returns this endpoint's world rank.
	Rank() int
	// Size returns the number of endpoints in the job.
	Size() int
	// Send delivers a contiguous frame to the endpoint with world rank
	// dst, transferring ownership of the slice to the device. It may
	// block for flow control but never blocks indefinitely while the
	// destination's progress engine is draining.
	Send(dst int, frame []byte) error
	// Sendv is the scatter-gather send: hdr and payload together form
	// one frame, without the caller assembling them contiguously.
	// Ownership of both slices transfers to the device. hdr must come
	// from GetBuf; the transport returns it to the pool once the frame
	// is on the wire (TCP) or hands it to the receiver for release
	// (shm). recycle declares that payload is exclusively owned and
	// unaliased, licensing the consuming side to return it to the frame
	// pool; pass false when the payload is shared (e.g. one buffer
	// fanned out to several destinations) or must outlive delivery.
	Sendv(dst int, hdr, payload []byte, recycle bool) error
	// Recv returns the next incoming frame from any source, blocking
	// until one arrives or the device is closed. The caller owns the
	// returned frame and must Release it.
	Recv() (Frame, error)
	// Close shuts the endpoint down; blocked Recv calls return
	// ErrClosed.
	Close() error
}

func checkDst(dst, size int) error {
	if dst < 0 || dst >= size {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", dst, size)
	}
	return nil
}
