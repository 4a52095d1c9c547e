package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
)

// frameWriterSize is the per-link staging buffer: a length prefix,
// header and small payload coalesce into one buffered write and flush
// as a single syscall, while writes larger than the buffer stream
// through bufio's large-write bypass without an extra copy.
const frameWriterSize = 16 << 10

// FramedConn is one socket link carrying the TCP wire framing: every
// frame is a 4-byte little-endian length prefix followed by that many
// bytes. Writers may call WriteFrame concurrently; ReadFrame belongs to
// the link's single reader goroutine.
type FramedConn struct {
	c  net.Conn
	mu sync.Mutex // serializes frame writes
	w  *bufio.Writer
	lp [4]byte // reader's length-prefix scratch
}

// NewFramedConn wraps c, switching off Nagle's algorithm on TCP
// connections: latency matters more than throughput here.
func NewFramedConn(c net.Conn) *FramedConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &FramedConn{c: c, w: bufio.NewWriterSize(c, frameWriterSize)}
}

// WriteFrame writes one frame as the gather of hdr and payload,
// flushing before return so no progress logic is needed to push
// stragglers out.
func (fc *FramedConn) WriteFrame(hdr, payload []byte) error {
	var lp [4]byte
	binary.LittleEndian.PutUint32(lp[:], uint32(len(hdr)+len(payload)))
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, err := fc.w.Write(lp[:]); err != nil {
		return err
	}
	if _, err := fc.w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := fc.w.Write(payload); err != nil {
			return err
		}
	}
	return fc.w.Flush()
}

// ReadFrame reads the next frame into one pooled buffer (see GetBuf),
// which the caller owns. On a short read the buffer goes back to the
// pool and the read error is returned.
func (fc *FramedConn) ReadFrame() ([]byte, error) {
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

// Close closes the underlying connection, unblocking its reader.
func (fc *FramedConn) Close() error { return fc.c.Close() }
