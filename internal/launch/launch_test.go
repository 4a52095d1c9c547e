package launch

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"

	"gompi/internal/transport"
)

func TestCoordinateAndJoin(t *testing.T) {
	const n = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coordDone := make(chan error, 1)
	go func() { coordDone <- Coordinate(ln, n) }()

	var wg sync.WaitGroup
	errs := make([]error, n)
	devs := make([]transport.Device, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d, err := joinMesh(transport.JobSpec{Rank: r, Size: n, Coord: ln.Addr().String()}, nil)
			if err != nil {
				errs[r] = err
				return
			}
			devs[r] = d
		}(r)
	}
	wg.Wait()
	if err := <-coordDone; err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// The mesh works: a full exchange round.
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := devs[r]
			for j := 0; j < n; j++ {
				if j != r {
					if err := d.Send(j, []byte(fmt.Sprintf("%d", r))); err != nil {
						errs[r] = err
						return
					}
				}
			}
			for j := 0; j < n-1; j++ {
				if _, err := d.Recv(); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("mesh exchange rank %d: %v", r, err)
		}
	}
	for _, d := range devs {
		d.Close()
	}
}

func TestCoordinateRejectsBadRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- Coordinate(ln, 2) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := gob.NewEncoder(c).Encode(hello{Rank: 7, Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("coordinator accepted an out-of-range rank")
	}
}

func TestJoinSizeMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var h hello
		gob.NewDecoder(c).Decode(&h)                            //nolint:errcheck
		gob.NewEncoder(c).Encode(table{Addrs: []string{"one"}}) //nolint:errcheck
	}()
	if _, err := joinMesh(transport.JobSpec{Rank: 0, Size: 3, Coord: ln.Addr().String()}, nil); err == nil {
		t.Fatal("joinMesh accepted a short address table")
	}
}
