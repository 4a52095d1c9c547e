package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// TestFramedConnWireFormat pins the wire framing both socket links
// share: a 4-byte little-endian length prefix, then header and payload
// back to back.
func TestFramedConnWireFormat(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := NewFramedConn(a)
	go func() {
		fc.WriteFrame([]byte("hd"), []byte("payload"))
		fc.Close()
	}()
	wire, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{9, 0, 0, 0}, "hdpayload"...)
	if !bytes.Equal(wire, want) {
		t.Fatalf("wire = %q, want %q", wire, want)
	}
}

func TestFramedConnRoundTripAndShortRead(t *testing.T) {
	a, b := net.Pipe()
	w, r := NewFramedConn(a), NewFramedConn(b)
	go func() {
		w.WriteFrame([]byte("hdr"), nil)
		w.WriteFrame([]byte("h"), bytes.Repeat([]byte{7}, 5000))
		a.Write([]byte{10, 0, 0, 0, 'x'}) // promises 10 bytes, delivers 1
		w.Close()
	}()
	f1, err := r.ReadFrame()
	if err != nil || string(f1) != "hdr" {
		t.Fatalf("frame 1 = %q, %v", f1, err)
	}
	f2, err := r.ReadFrame()
	if err != nil || len(f2) != 5001 || f2[0] != 'h' || f2[5000] != 7 {
		t.Fatalf("frame 2: len %d, %v", len(f2), err)
	}
	PutBuf(f1)
	PutBuf(f2)
	if f3, err := r.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) || f3 != nil {
		t.Fatalf("short frame = %q, %v; want nil, ErrUnexpectedEOF", f3, err)
	}
}
