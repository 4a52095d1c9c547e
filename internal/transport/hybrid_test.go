package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptDev is a Device whose receive stream the test feeds by hand:
// the harness for exercising the hybrid merge without real fabrics.
type scriptDev struct {
	rank, size int
	events     chan func() (Frame, error)
	done       chan struct{}
	closeOnce  sync.Once
	sends      atomic.Int32
}

func newScriptDev(rank, size int) *scriptDev {
	return &scriptDev{
		rank: rank, size: size,
		events: make(chan func() (Frame, error), 16),
		done:   make(chan struct{}),
	}
}

func (d *scriptDev) frame(b []byte) {
	d.events <- func() (Frame, error) { return Frame{Data: b}, nil }
}

func (d *scriptDev) lose(peer int) {
	d.events <- func() (Frame, error) {
		return Frame{}, &PeerLostError{Peer: peer, Err: errors.New("scripted loss")}
	}
}

// end makes the device's stream end on its own, as a fault-injected
// kill of the endpoint does.
func (d *scriptDev) end() {
	d.events <- func() (Frame, error) { return Frame{}, ErrClosed }
}

func (d *scriptDev) Rank() int { return d.rank }
func (d *scriptDev) Size() int { return d.size }

func (d *scriptDev) Send(int, []byte) error {
	d.sends.Add(1)
	return nil
}

func (d *scriptDev) Sendv(int, []byte, []byte, bool) error {
	d.sends.Add(1)
	return nil
}

func (d *scriptDev) Recv() (Frame, error) {
	select {
	case ev := <-d.events:
		return ev()
	case <-d.done:
		return Frame{}, ErrClosed
	}
}

func (d *scriptDev) Close() error {
	d.closeOnce.Do(func() { close(d.done) })
	return nil
}

type recvRes struct {
	f   Frame
	err error
}

// startReceiver drains h.Recv on one goroutine (as the engine's
// progress loop would), so timed assertions never leave a stray Recv
// behind to steal the next event.
func startReceiver(h *Hybrid) <-chan recvRes {
	ch := make(chan recvRes, 16)
	go func() {
		for {
			f, err := h.Recv()
			if err == ErrClosed {
				return
			}
			ch <- recvRes{f, err}
		}
	}()
	return ch
}

// recvOne returns the receiver's next event, or ok=false if none
// arrives in time — the shape a (correctly) suppressed report asserts.
func recvOne(t *testing.T, ch <-chan recvRes, wait time.Duration) (Frame, error, bool) {
	t.Helper()
	select {
	case r := <-ch:
		return r.f, r.err, true
	case <-time.After(wait):
		return Frame{}, nil, false
	}
}

// TestHybridPeerLossRouteFilter: a medium losing a peer it does not
// route must not fail that peer — only the routing medium's report
// surfaces, and traffic from the peer's healthy route keeps flowing.
func TestHybridPeerLossRouteFilter(t *testing.T) {
	island := newScriptDev(0, 4)
	mesh := newScriptDev(0, 4)
	h, err := NewHybrid(0, []Link{nil, island, mesh, mesh})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ch := startReceiver(h)

	// The mesh claims peer 1 died — but peer 1 travels the island.
	mesh.lose(1)
	island.frame([]byte("from-1"))

	f, rerr, ok := recvOne(t, ch, 5*time.Second)
	if !ok || rerr != nil || string(f.Data) != "from-1" {
		t.Fatalf("Recv after off-route loss: frame=%q err=%v ok=%v, want the island frame", f.Data, rerr, ok)
	}
	// The suppressed report must not be queued behind the frame.
	if f, rerr, ok := recvOne(t, ch, 100*time.Millisecond); ok {
		t.Fatalf("off-route loss surfaced: frame=%q err=%v", f.Data, rerr)
	}
}

// TestHybridPeerLossDedup: a peer reachable over several media must
// surface exactly one PeerLostError, no matter how many media report it
// or how many times.
func TestHybridPeerLossDedup(t *testing.T) {
	island := newScriptDev(0, 4)
	mesh := newScriptDev(0, 4)
	h, err := NewHybrid(0, []Link{nil, island, mesh, mesh})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ch := startReceiver(h)

	mesh.lose(2)
	mesh.lose(2)   // duplicate from the routing medium
	island.lose(2) // report from the other medium

	_, rerr, ok := recvOne(t, ch, 5*time.Second)
	var pl *PeerLostError
	if !ok || !errors.As(rerr, &pl) || pl.Peer != 2 {
		t.Fatalf("first Recv: err=%v ok=%v, want PeerLostError for peer 2", rerr, ok)
	}
	if _, rerr, ok := recvOne(t, ch, 100*time.Millisecond); ok {
		t.Fatalf("duplicate loss surfaced: %v", rerr)
	}

	// The composite keeps serving other peers after the loss.
	island.frame([]byte("still-here"))
	f, rerr, ok := recvOne(t, ch, 5*time.Second)
	if !ok || rerr != nil || string(f.Data) != "still-here" {
		t.Fatalf("post-loss Recv: frame=%q err=%v ok=%v", f.Data, rerr, ok)
	}
}

// TestHybridLossOnEachMedium: losses on distinct peers routed by
// distinct media both surface (the dedup is per peer, not global).
func TestHybridLossOnEachMedium(t *testing.T) {
	island := newScriptDev(0, 3)
	mesh := newScriptDev(0, 3)
	h, err := NewHybrid(0, []Link{nil, island, mesh})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ch := startReceiver(h)

	island.lose(1)
	mesh.lose(2)

	seen := map[int]int{}
	for i := 0; i < 2; i++ {
		_, rerr, ok := recvOne(t, ch, 5*time.Second)
		var pl *PeerLostError
		if !ok || !errors.As(rerr, &pl) {
			t.Fatalf("Recv %d: err=%v ok=%v", i, rerr, ok)
		}
		seen[pl.Peer]++
	}
	if seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("loss reports = %v, want exactly one for each of peers 1 and 2", seen)
	}
}

// TestHybridSubDeviceEndEndsStream: a link whose stream ends on its own
// while the Hybrid is open ends the merged stream — after everything it
// queued, frames and loss reports alike, has been delivered.
func TestHybridSubDeviceEndEndsStream(t *testing.T) {
	base := newScriptDev(0, 3)
	h, err := NewHybrid(0, []Link{nil, base, base})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	base.frame([]byte("last"))
	base.lose(1)
	base.end()

	res := make(chan recvRes, 4)
	go func() {
		for i := 0; i < 4; i++ {
			f, err := h.Recv()
			res <- recvRes{f, err}
		}
	}()
	next := func() recvRes {
		t.Helper()
		select {
		case r := <-res:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("Recv blocked after the link's stream ended")
			return recvRes{}
		}
	}
	if r := next(); r.err != nil || string(r.f.Data) != "last" {
		t.Fatalf("first Recv: frame=%q err=%v, want the queued frame", r.f.Data, r.err)
	}
	var pl *PeerLostError
	if r := next(); !errors.As(r.err, &pl) || pl.Peer != 1 {
		t.Fatalf("second Recv: err=%v, want the queued loss of peer 1", r.err)
	}
	for i := 0; i < 2; i++ {
		if r := next(); r.err != ErrClosed {
			t.Fatalf("Recv after the end: frame=%q err=%v, want ErrClosed", r.f.Data, r.err)
		}
	}
}

// TestHybridAttach: Attach grows the route table by one rank whose
// traffic, frames and single loss report flow like a launch-time rank's;
// after Close it refuses (and closes) the link.
func TestHybridAttach(t *testing.T) {
	base := newScriptDev(0, 2)
	h, err := NewHybrid(0, []Link{nil, base})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	late := newScriptDev(0, 0)
	if err := h.Attach(3, late); err == nil {
		t.Fatal("Attach skipped a rank")
	}
	// Sends read the route table without a lock while Attach grows it.
	stop := make(chan struct{})
	var sending sync.WaitGroup
	sending.Add(1)
	go func() {
		defer sending.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Send(h.Size()-1, nil)
			}
		}
	}()
	late = newScriptDev(0, 0)
	err = h.Attach(2, late)
	close(stop)
	sending.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 3 {
		t.Fatalf("Size after Attach = %d, want 3", h.Size())
	}
	baseSends, lateSends := base.sends.Load(), late.sends.Load()
	if err := h.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if late.sends.Load() != lateSends+1 || base.sends.Load() != baseSends {
		t.Fatalf("Send(2) reached late=%d base=%d, want only the attached link", late.sends.Load()-lateSends, base.sends.Load()-baseSends)
	}
	ch := startReceiver(h)
	late.frame([]byte("late"))
	if f, rerr, ok := recvOne(t, ch, 5*time.Second); !ok || rerr != nil || string(f.Data) != "late" {
		t.Fatalf("attached frame: frame=%q err=%v ok=%v", f.Data, rerr, ok)
	}
	late.lose(2)
	late.lose(2)
	_, rerr, ok := recvOne(t, ch, 5*time.Second)
	var pl *PeerLostError
	if !ok || !errors.As(rerr, &pl) || pl.Peer != 2 {
		t.Fatalf("attached loss: err=%v ok=%v, want PeerLostError for peer 2", rerr, ok)
	}
	if _, rerr, ok := recvOne(t, ch, 100*time.Millisecond); ok {
		t.Fatalf("duplicate loss surfaced: %v", rerr)
	}

	h.Close()
	again := newScriptDev(0, 0)
	if err := h.Attach(3, again); err != ErrClosed {
		t.Fatalf("Attach after Close = %v, want ErrClosed", err)
	}
	select {
	case <-again.done:
	default:
		t.Fatal("Attach after Close left the link open")
	}
}
