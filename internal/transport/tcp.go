package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The socket mesh is the paper's Distributed Memory (DM) mode: every
// pair of ranks shares one TCP connection, a FramedConn, and this
// rank's endpoint is a Hybrid routing each peer over its link. Per-pair
// FIFO ordering follows from TCP's byte-stream ordering plus the link's
// writer lock.

const meshMagic = 0x6d706a31 // "mpj1"

// ConnectMesh builds this rank's socket links and returns the Hybrid
// routing over them. addrs[i] is the listen address of rank i's
// listener; ln is this rank's own listener, closed once every peer has
// connected. route, when non-nil, is the table to complete: ranks it
// already names are reached through another medium (a multi-node job's
// shared-memory island) and get no connection, and each other peer gets
// a link. Rank r dials every lower rank and accepts from every higher
// rank, identifying peers through a handshake frame, so the procedure
// is deadlock-free regardless of scheduling.
func ConnectMesh(rank int, addrs []string, ln net.Listener, route []Link) (*Hybrid, error) {
	defer ln.Close()
	size := len(addrs)
	if route == nil {
		route = make([]Link, size)
	}
	if len(route) != size || rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d of a %d-address mesh with a %d-rank route", rank, size, len(route))
	}
	need := make([]bool, size) // peers this mesh links
	for r := range route {
		need[r] = r != rank && route[r] == nil
	}
	fail := func(err error) (*Hybrid, error) {
		for r, l := range route {
			if need[r] && l != nil {
				l.Close()
			}
		}
		return nil, err
	}
	// Dial lower ranks.
	for j := 0; j < rank; j++ {
		if !need[j] {
			continue
		}
		c, err := dialPeer(addrs[j], rank)
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d dialing rank %d: %w", rank, j, err))
		}
		route[j] = NewFramedConn(c, j)
	}
	// Accept higher ranks.
	accept := 0
	for r := rank + 1; r < size; r++ {
		if need[r] {
			accept++
		}
	}
	for ; accept > 0; accept-- {
		c, peer, err := acceptPeer(ln)
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d accepting: %w", rank, err))
		}
		if peer <= rank || peer >= size || !need[peer] || route[peer] != nil {
			c.Close()
			return fail(fmt.Errorf("transport: rank %d got bad handshake from claimed rank %d", rank, peer))
		}
		route[peer] = NewFramedConn(c, peer)
	}
	return NewHybrid(rank, route)
}

func dialPeer(addr string, myRank int) (net.Conn, error) {
	var c net.Conn
	var err error
	// The peer's listener exists before addresses are published, but
	// transient kernel-level refusals can still happen under load.
	for attempt := 0; attempt < 50; attempt++ {
		c, err = net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[0:], meshMagic)
	binary.LittleEndian.PutUint32(hs[4:], uint32(myRank))
	if _, err := c.Write(hs[:]); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func acceptPeer(ln net.Listener) (net.Conn, int, error) {
	c, err := ln.Accept()
	if err != nil {
		return nil, 0, err
	}
	var hs [8]byte
	if _, err := io.ReadFull(c, hs[:]); err != nil {
		c.Close()
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(hs[0:]) != meshMagic {
		c.Close()
		return nil, 0, fmt.Errorf("bad mesh handshake magic")
	}
	return c, int(binary.LittleEndian.Uint32(hs[4:])), nil
}

// NewLoopbackJob creates an n-rank DM-mode job entirely in-process over
// 127.0.0.1, for tests and benchmarks: real sockets, real wire framing,
// no separate OS processes.
func NewLoopbackJob(n int) ([]*Hybrid, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	devs := make([]*Hybrid, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			devs[i], errs[i] = ConnectMesh(i, addrs, lns[i], nil)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, d := range devs {
				if d != nil {
					d.Close()
				}
			}
			return nil, err
		}
	}
	return devs, nil
}
