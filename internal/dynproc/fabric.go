package dynproc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/obs"
	"gompi/internal/transport"
)

// link is one admitted dynamic peer: a socket link whose frames arrive
// stamped with the sender's own world rank — meaningless here — and are
// rewritten to this process's index for the peer before they reach the
// engine, so envelope matching and reply routing see a coherent local
// world.
type link struct {
	*transport.FramedConn
	idx int32
}

// Recv reads the next frame and rewrites its source. A frame too short
// to carry one passes through untouched; the engine drops it as
// malformed.
func (l *link) Recv() (transport.Frame, error) {
	fr, err := l.FramedConn.Recv()
	if err == nil {
		core.PatchFrameSource(fr.Data, l.idx) //nolint:errcheck // see above
	}
	return fr, err
}

// DeviceStats reports the link's traffic under the "dyn" medium name.
func (l *link) DeviceStats() []transport.DevStats {
	s := l.FramedConn.DeviceStats()
	s[0].Name = "dyn"
	return s
}

// Fabric is the dynamic-process admission layer over a growable
// transport.Hybrid. Ranks below the launch-time size keep their routes;
// every admitted late joiner becomes the next rank of the Hybrid's
// route table, carried by its own socket link, so the engine above sees
// a single Device whose Size grows. The Fabric itself only admits: the
// rendezvous listener, ports, joins, the world epoch and the GUIDs of
// admitted peers.
type Fabric struct {
	*transport.Hybrid
	guid string

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // accept loop

	mu     sync.Mutex
	ln     net.Listener
	lnAddr string
	byGUID map[string]*link
	epoch  int
	ports  map[string]*Port // capability key → open port
	joins  map[uint64]*pendingJoin

	// rec is the rank's flight recorder (nil = tracing disabled); the
	// join/admit handshakes record spans on it. Set once at wiring
	// time, before any handshake can run.
	rec *obs.Recorder
	// spanSeq mints ids for overlapping join/admit spans.
	spanSeq atomic.Uint32
}

// NewFabric builds the fabric over base. A base that is already a
// Hybrid (a socket mesh, a multi-node table) is grown in place; any
// other device becomes the single link of a new Hybrid that routes every
// launch-time rank, self included, through it.
func NewFabric(base transport.Device) (*Fabric, error) {
	h, ok := base.(*transport.Hybrid)
	if !ok {
		route := make([]transport.Link, base.Size())
		for r := range route {
			route[r] = base
		}
		var err error
		if h, err = transport.NewHybrid(base.Rank(), route); err != nil {
			return nil, err
		}
	}
	return &Fabric{Hybrid: h, guid: newGUID(), done: make(chan struct{})}, nil
}

// GUID returns this process endpoint's globally unique id.
func (f *Fabric) GUID() string { return f.guid }

// SetRecorder attaches the rank's flight recorder. Call before the
// first Connect/Accept; a nil recorder keeps tracing disabled.
func (f *Fabric) SetRecorder(r *obs.Recorder) { f.rec = r }

// span opens a trace span and returns its closer.
func (f *Fabric) span(kind obs.EventKind, val int64) func() {
	if f.rec == nil {
		return func() {}
	}
	id := f.spanSeq.Add(1)
	f.rec.Begin(kind, id, val)
	return func() { f.rec.End(kind, id, 0) }
}

// Epoch returns the world epoch: the number of joins admitted so far.
func (f *Fabric) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// EnsureListener starts the rendezvous listener on first use and
// returns its address. One listener serves every port and join of this
// process for the life of the fabric.
func (f *Fabric) EnsureListener() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.done:
		return "", transport.ErrClosed
	default:
	}
	if f.ln != nil {
		return f.lnAddr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("dynproc: rendezvous listener: %w", err)
	}
	f.ln = ln
	f.lnAddr = ln.Addr().String()
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return f.lnAddr, nil
}

// Close tears the fabric down: rendezvous listener, open ports, parked
// joins, then the Hybrid with every link. Blocked Recv calls return
// ErrClosed.
func (f *Fabric) Close() error {
	var err error
	f.closeOnce.Do(func() {
		close(f.done)
		f.mu.Lock()
		ln := f.ln
		ports := f.ports
		joins := f.joins
		f.ports = nil
		f.joins = nil
		f.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, p := range ports {
			p.drain("world shut down")
		}
		for _, pj := range joins {
			pj.closeAll()
		}
		err = f.Hybrid.Close()
		f.wg.Wait()
	})
	return err
}

var _ transport.Device = (*Fabric)(nil)
