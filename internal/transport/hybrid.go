package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Link is the data path of one route in a Hybrid: every Device is a
// Link, and so is a FramedConn, which carries a single peer. dst is the
// destination's world rank in the Hybrid's numbering.
type Link interface {
	Send(dst int, frame []byte) error
	Sendv(dst int, hdr, payload []byte, recycle bool) error
	Recv() (Frame, error)
	Close() error
}

// Hybrid is the one place where receive streams merge: a Device over a
// route table naming the Link that carries each world rank's traffic.
// A socket mesh is a Hybrid of one FramedConn per peer; a multi-node
// job's table mixes the shared-memory island with socket links; the
// dynamic-process fabric grows the table as late joiners are admitted
// (Attach). Sends route by destination; receives merge every link's
// stream through one pump goroutine per link, preserving each link's
// per-pair FIFO order (merging never reorders a single pair, whose
// frames all travel one link).
type Hybrid struct {
	rank int
	// route is copy-on-write so Send reads it without a lock: route[r]
	// carries traffic to and from world rank r, and a nil route[rank]
	// delivers self traffic straight into the merged inbox.
	route atomic.Pointer[[]Link]

	mu     sync.Mutex // serializes Attach against Close
	links  []Link     // distinct links, one pump each
	closed bool

	inbox chan Frame
	errs  chan error
	done  chan struct{} // closed by Close
	// over is closed when the merged stream ends — by Close, or by a
	// link whose own stream ended — and overErr is what Recv reports
	// once everything queued before that has been delivered.
	over     chan struct{}
	overOnce sync.Once
	overErr  error
	wg       sync.WaitGroup

	// lost dedupes peer-loss reports across links: a peer may be
	// reachable (and thus lose-able) through more than one medium, but
	// the engine must see exactly one PeerLostError per peer.
	lostMu sync.Mutex
	lost   map[int]bool

	closeOnce sync.Once
	closeErr  error
}

// NewHybrid builds a composite endpoint for this rank over route, which
// must name a link for every world rank except possibly this one (see
// the route field for self traffic). A table with no links at all is a
// one-rank world. Hybrid takes ownership of the links and closes them on
// Close.
func NewHybrid(rank int, route []Link) (*Hybrid, error) {
	if rank < 0 || rank >= len(route) {
		return nil, fmt.Errorf("transport: hybrid rank %d outside its %d-rank route", rank, len(route))
	}
	h := &Hybrid{
		rank:  rank,
		inbox: make(chan Frame, DefaultInboxDepth),
		errs:  make(chan error, len(route)), // one loss report per launch-time rank without blocking a pump
		done:  make(chan struct{}),
		over:  make(chan struct{}),
		lost:  make(map[int]bool),
	}
	seen := map[Link]bool{}
	for r, l := range route {
		if l == nil {
			if r == rank {
				continue
			}
			return nil, fmt.Errorf("transport: hybrid route missing rank %d", r)
		}
		if !seen[l] {
			seen[l] = true
			h.links = append(h.links, l)
		}
	}
	h.route.Store(&route)
	for _, l := range h.links {
		h.wg.Add(1)
		go h.pump(l)
	}
	return h, nil
}

// Attach grows the world by one rank routed over l, which must be the
// next rank (Size()): existing ranks are never renumbered. The link's
// stream joins the merge at once. On failure — after Close it is
// ErrClosed — l is closed.
func (h *Hybrid) Attach(rank int, l Link) error {
	err := h.attach(rank, l)
	if err != nil {
		l.Close()
	}
	return err
}

func (h *Hybrid) attach(rank int, l Link) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := *h.route.Load()
	if h.closed {
		return ErrClosed
	}
	if rank != len(old) {
		return fmt.Errorf("transport: hybrid attach at rank %d, want the next rank %d", rank, len(old))
	}
	grown := append(old[:len(old):len(old)], l)
	h.route.Store(&grown)
	h.links = append(h.links, l)
	h.wg.Add(1)
	go h.pump(l)
	return nil
}

// pump forwards one link's receive stream into the merged inbox.
// A PeerLostError passes through only when this link is the one routing
// the peer's traffic — an island device may share its segment with
// ranks the composite actually reaches over TCP (or vice versa), and a
// medium losing a peer it does not carry must not fail that peer's
// healthy route. Each peer's loss is surfaced at most once, even when
// several media report it, and a link left carrying no live peer stops
// being read. Any other error means the link's stream ended on its own
// (e.g. fault injection closed the endpoint): the merged stream ends
// too, as the bare device would.
func (h *Hybrid) pump(l Link) {
	defer h.wg.Done()
	for {
		f, err := l.Recv()
		if err == nil {
			select {
			case h.inbox <- f:
			case <-h.done:
				f.Release()
				return
			}
			continue
		}
		pl, lost := err.(*PeerLostError)
		if !lost {
			h.end(err)
			return
		}
		if h.lostOnRoute(pl.Peer, l) {
			select {
			case <-h.done:
				return // our own shutdown tore the link down
			default:
			}
			select {
			case h.errs <- err:
			case <-h.done:
				return
			}
		}
		if !h.carriesLive(l) {
			return
		}
	}
}

// end closes the merged stream with err, once.
func (h *Hybrid) end(err error) {
	h.overOnce.Do(func() {
		h.overErr = err
		close(h.over)
	})
}

// lostOnRoute records l's loss report for peer and reports whether it
// should surface: only the first report, and only from the link that
// actually routes the peer.
func (h *Hybrid) lostOnRoute(peer int, l Link) bool {
	route := *h.route.Load()
	if peer < 0 || peer >= len(route) || route[peer] != l {
		return false
	}
	h.lostMu.Lock()
	defer h.lostMu.Unlock()
	if h.lost[peer] {
		return false
	}
	h.lost[peer] = true
	return true
}

// carriesLive reports whether l still routes this rank's own traffic or
// a peer not yet lost.
func (h *Hybrid) carriesLive(l Link) bool {
	route := *h.route.Load()
	h.lostMu.Lock()
	defer h.lostMu.Unlock()
	for r, d := range route {
		if d == l && (r == h.rank || !h.lost[r]) {
			return true
		}
	}
	return false
}

// Rank returns this endpoint's world rank.
func (h *Hybrid) Rank() int { return h.rank }

// Size returns the current world size, including attached ranks.
func (h *Hybrid) Size() int { return len(*h.route.Load()) }

// Send routes a contiguous frame to dst's link.
func (h *Hybrid) Send(dst int, frame []byte) error {
	route := *h.route.Load()
	if err := checkDst(dst, len(route)); err != nil {
		return err
	}
	if l := route[dst]; l != nil {
		return l.Send(dst, frame)
	}
	return h.deliverSelf(Frame{Data: frame})
}

// Sendv routes a scatter-gather frame to dst's link.
func (h *Hybrid) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	route := *h.route.Load()
	f := Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle}
	if err := checkDst(dst, len(route)); err != nil {
		f.Release()
		return err
	}
	if l := route[dst]; l != nil {
		return l.Sendv(dst, hdr, payload, recycle)
	}
	return h.deliverSelf(f)
}

// deliverSelf enqueues a self-addressed frame on the merged inbox,
// releasing its pooled storage if nobody will consume it.
func (h *Hybrid) deliverSelf(f Frame) error {
	select {
	case h.inbox <- f:
		return nil
	case <-h.done:
		f.Release()
		return ErrClosed
	}
}

// Recv returns the next frame from any link. Frames already pumped win
// over failure reports: a pump forwards a link's stream in order, so
// prioritizing the inbox guarantees a peer's last frames are all
// delivered before its loss is reported. Once the stream has ended,
// what was queued drains first and every later call fails.
func (h *Hybrid) Recv() (Frame, error) {
	select {
	case f := <-h.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-h.inbox:
		return f, nil
	case err := <-h.errs:
		return Frame{}, err
	case <-h.over:
		select {
		case f := <-h.inbox:
			return f, nil
		default:
		}
		select {
		case err := <-h.errs:
			return Frame{}, err
		default:
			return Frame{}, h.overErr
		}
	}
}

// Close shuts down every link and drains the pumps.
func (h *Hybrid) Close() error {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		h.closed = true
		links := h.links
		h.mu.Unlock()
		h.end(ErrClosed)
		close(h.done)
		for _, l := range links {
			if err := l.Close(); err != nil && h.closeErr == nil {
				h.closeErr = err
			}
		}
		h.wg.Wait()
		for {
			select {
			case f := <-h.inbox:
				f.Release()
			default:
				return
			}
		}
	})
	return h.closeErr
}

// DeviceStats reports the links' counters with one entry per medium:
// the socket links of a mesh sum into a single "tcp" entry.
func (h *Hybrid) DeviceStats() []DevStats {
	h.mu.Lock()
	links := h.links
	h.mu.Unlock()
	var out []DevStats
	at := map[string]int{}
	for _, l := range links {
		for _, s := range DeviceStatsOf(l) {
			i, ok := at[s.Name]
			if !ok {
				at[s.Name] = len(out)
				out = append(out, s)
				continue
			}
			out[i].FramesSent += s.FramesSent
			out[i].FramesRecv += s.FramesRecv
			out[i].BytesSent += s.BytesSent
			out[i].BytesRecv += s.BytesRecv
		}
	}
	return out
}

var (
	_ Device = (*Hybrid)(nil)
	_ Link   = (*FramedConn)(nil)
)
