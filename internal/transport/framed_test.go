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
	fc := NewFramedConn(a, 1)
	go func() {
		hdr := GetBuf(2)
		copy(hdr, "hd")
		fc.Sendv(1, hdr, []byte("payload"), false)
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
	w, r := NewFramedConn(a, 1), NewFramedConn(b, 0)
	go func() {
		w.Send(1, []byte("hdr"))
		hdr := GetBuf(1)
		hdr[0] = 'h'
		w.Sendv(1, hdr, bytes.Repeat([]byte{7}, 5000), false)
		a.Write([]byte{10, 0, 0, 0, 'x'}) // promises 10 bytes, delivers 1
		w.Close()
	}()
	f1, err := r.Recv()
	if err != nil || string(f1.Data) != "hdr" {
		t.Fatalf("frame 1 = %q, %v", f1.Data, err)
	}
	f2, err := r.Recv()
	if err != nil || len(f2.Data) != 5001 || f2.Data[0] != 'h' || f2.Data[5000] != 7 {
		t.Fatalf("frame 2: len %d, %v", len(f2.Data), err)
	}
	f1.Release()
	f2.Release()
	if r.Lost() {
		t.Fatal("link lost before its stream failed")
	}
	// The short frame is the link's first read error: the peer's loss.
	f3, err := r.Recv()
	var pl *PeerLostError
	if !errors.As(err, &pl) || pl.Peer != 0 || !errors.Is(err, io.ErrUnexpectedEOF) || f3.Data != nil {
		t.Fatalf("short frame = %q, %v; want PeerLostError{Peer: 0} wrapping ErrUnexpectedEOF", f3.Data, err)
	}
	if !r.Lost() {
		t.Fatal("Lost() false after the read error")
	}
}
