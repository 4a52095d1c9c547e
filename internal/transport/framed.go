package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// frameWriterSize is the per-link staging buffer: a length prefix,
// header and small payload coalesce into one buffered write and flush
// as a single syscall, while writes larger than the buffer stream
// through bufio's large-write bypass without an extra copy.
const frameWriterSize = 16 << 10

// FramedConn is the per-peer socket link: one connection to one peer,
// carrying the TCP wire framing — every frame is a 4-byte little-endian
// length prefix followed by that many bytes. It is a Link, so a Hybrid
// routes the peer's traffic through it and merges its receive stream
// with every other route's. Senders may call Send/Sendv concurrently;
// Recv belongs to the link's single reader (the Hybrid's pump).
type FramedConn struct {
	c    net.Conn
	peer int
	mu   sync.Mutex // serializes frame writes
	w    *bufio.Writer
	lp   [4]byte // reader's length-prefix scratch
	lost atomic.Bool

	devCounters
}

// NewFramedConn wraps c as the link to world rank peer, switching off
// Nagle's algorithm on TCP connections: latency matters more than
// throughput here.
func NewFramedConn(c net.Conn, peer int) *FramedConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &FramedConn{c: c, peer: peer, w: bufio.NewWriterSize(c, frameWriterSize)}
}

// Send writes a contiguous frame to the peer. The frame is not
// returned to the frame pool: a contiguous send carries no exclusivity
// promise. dst is the peer's rank as the routing Hybrid sees it.
func (fc *FramedConn) Send(dst int, frame []byte) error {
	return fc.write(frame, nil)
}

// Sendv writes the (hdr, payload) gather without assembling a
// contiguous frame; both slices go back to the frame pool once the
// bytes are on the wire (the payload only when recycle vouches for
// exclusive ownership).
func (fc *FramedConn) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	err := fc.write(hdr, payload)
	PutBuf(hdr)
	if recycle {
		PutBuf(payload)
	}
	return err
}

// write sends one frame, flushing before return so no progress logic
// is needed to push stragglers out. A failed write means the peer is
// unreachable.
func (fc *FramedConn) write(hdr, payload []byte) error {
	var lp [4]byte
	n := len(hdr) + len(payload)
	binary.LittleEndian.PutUint32(lp[:], uint32(n))
	fc.mu.Lock()
	_, err := fc.w.Write(lp[:])
	if err == nil {
		_, err = fc.w.Write(hdr)
	}
	if err == nil && len(payload) > 0 {
		_, err = fc.w.Write(payload)
	}
	if err == nil {
		err = fc.w.Flush()
	}
	fc.mu.Unlock()
	if err != nil {
		return &PeerLostError{Peer: fc.peer, Err: err}
	}
	fc.countSend(n)
	return nil
}

// Recv reads the next frame into one pooled buffer (see GetBuf), which
// the caller owns; the engine parses the header in place and hands the
// payload tail to the matching receive without another copy. The first
// read error closes the connection and is reported as the peer's loss.
func (fc *FramedConn) Recv() (Frame, error) {
	buf, err := fc.read()
	if err != nil {
		fc.lost.Store(true)
		fc.c.Close()
		return Frame{}, &PeerLostError{Peer: fc.peer, Err: err}
	}
	fc.countRecv(len(buf))
	return Frame{Data: buf, pooledData: true}, nil
}

func (fc *FramedConn) read() ([]byte, error) {
	if _, err := io.ReadFull(fc.c, fc.lp[:]); err != nil {
		return nil, err
	}
	buf := GetBuf(int(binary.LittleEndian.Uint32(fc.lp[:])))
	if _, err := io.ReadFull(fc.c, buf); err != nil {
		PutBuf(buf)
		return nil, err
	}
	return buf, nil
}

// Lost reports whether Recv has seen the connection fail.
func (fc *FramedConn) Lost() bool { return fc.lost.Load() }

// Close closes the connection, unblocking the reader. It never fails:
// after a peer's loss the connection is already down.
func (fc *FramedConn) Close() error {
	fc.c.Close()
	return nil
}

// DeviceStats reports the link's traffic under the "tcp" medium name;
// its buffers come from the process-private pool.
func (fc *FramedConn) DeviceStats() []DevStats {
	return []DevStats{fc.devCounters.stats("tcp", PoolStats())}
}
