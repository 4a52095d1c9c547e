package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testFIFOPerPair(t *testing.T, devs []Device) {
	t.Helper()
	const n = 500
	var wg sync.WaitGroup
	// Every rank sends n numbered frames to every other rank.
	for i := range devs {
		wg.Add(1)
		go func(d Device) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				for j := range devs {
					if j == d.Rank() {
						continue
					}
					frame := []byte{byte(d.Rank()), byte(k >> 8), byte(k)}
					if err := d.Send(j, frame); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(devs[i])
	}
	// Every rank must observe per-sender ascending sequence numbers.
	for i := range devs {
		wg.Add(1)
		go func(d Device) {
			defer wg.Done()
			last := make(map[byte]int)
			for i := range last {
				_ = i
			}
			total := (len(devs) - 1) * n
			for c := 0; c < total; c++ {
				f, err := d.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				src := f.Data[0]
				seq := int(f.Data[1])<<8 | int(f.Data[2])
				f.Release()
				if prev, ok := last[src]; ok && seq != prev+1 {
					t.Errorf("rank %d: from %d got seq %d after %d", d.Rank(), src, seq, prev)
					return
				}
				last[src] = seq
			}
		}(devs[i])
	}
	wg.Wait()
}

func TestShmFIFO(t *testing.T) {
	devs := NewShmJob(3, 0)
	ds := make([]Device, len(devs))
	for i, d := range devs {
		ds[i] = d
	}
	testFIFOPerPair(t, ds)
	for _, d := range devs {
		d.Close()
	}
}

func TestTCPFIFO(t *testing.T) {
	devs, err := NewLoopbackJob(3)
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]Device, len(devs))
	for i, d := range devs {
		ds[i] = d
	}
	testFIFOPerPair(t, ds)
	for _, d := range devs {
		d.Close()
	}
}

func TestShmCloseUnblocksRecv(t *testing.T) {
	devs := NewShmJob(2, 0)
	done := make(chan error, 1)
	go func() {
		_, err := devs[0].Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	devs[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestTCPSelfSend(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	defer devs[1].Close()
	want := []byte("self")
	if err := devs[0].Send(0, want); err != nil {
		t.Fatal(err)
	}
	got, err := devs[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatalf("got %q", got.Data)
	}
}

func TestTCPLargeFrame(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	defer devs[1].Close()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	go devs[0].Send(1, big) //nolint:errcheck // checked via received bytes
	got, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, big) {
		t.Fatal("large frame corrupted")
	}
	got.Release()
}

func TestBadDestination(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	if err := devs[0].Send(5, []byte("x")); err == nil {
		t.Fatal("out-of-range destination must error")
	}
	if err := devs[0].Send(-1, []byte("x")); err == nil {
		t.Fatal("negative destination must error")
	}
}

func TestShapedZeroProfilePassThrough(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	if got := NewShaped(devs[0], LinkProfile{}); got != Device(devs[0]) {
		t.Fatal("zero profile must return the inner device")
	}
}

func TestShapedLatency(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	const lat = 2 * time.Millisecond
	s := NewShaped(devs[0], LinkProfile{Latency: lat})
	start := time.Now()
	if err := s.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("latency not charged: %v < %v", d, lat)
	}
}

func TestShapedBandwidth(t *testing.T) {
	devs := NewShmJob(2, 64)
	defer devs[0].Close()
	defer devs[1].Close()
	// 1 MB/s: a 10 KB frame must take >= ~10 ms.
	s := NewShaped(devs[0], LinkProfile{BytesPerSec: 1e6})
	frame := make([]byte, 10_000)
	start := time.Now()
	if err := s.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 9*time.Millisecond {
		t.Fatalf("serialization not charged: %v", d)
	}
	// Back-to-back frames queue behind each other.
	start = time.Now()
	for i := 0; i < 3; i++ {
		if err := s.Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 27*time.Millisecond {
		t.Fatalf("link queueing not modelled: %v", d)
	}
}

func TestShapedStagingCopyIsolation(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	s := NewShaped(devs[0], LinkProfile{StagingCopy: true})
	frame := []byte{1, 2, 3}
	if err := s.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	frame[0] = 99 // mutate after send; receiver must see the staged copy
	got, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 1 {
		t.Fatalf("staging copy missing: got %v", got.Data)
	}
}

func TestMeshHandshakeRejectsGarbage(t *testing.T) {
	// A listener fed a garbage handshake must reject the connection.
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		d.Close()
	}
}

func TestLoopbackJobSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		devs, err := NewLoopbackJob(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, d := range devs {
			if d.Rank() != i || d.Size() != n {
				t.Fatalf("n=%d: dev %d reports rank=%d size=%d", n, i, d.Rank(), d.Size())
			}
		}
		// One full exchange round.
		var wg sync.WaitGroup
		for _, d := range devs {
			wg.Add(1)
			go func(d *Hybrid) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if j != d.Rank() {
						if err := d.Send(j, []byte(fmt.Sprintf("%d->%d", d.Rank(), j))); err != nil {
							t.Errorf("send: %v", err)
						}
					}
				}
				for j := 0; j < n-1; j++ {
					if _, err := d.Recv(); err != nil {
						t.Errorf("recv: %v", err)
					}
				}
			}(d)
		}
		wg.Wait()
		// The links of a mesh report as one medium.
		for _, d := range devs {
			st := d.DeviceStats()
			if n == 1 && len(st) != 0 {
				t.Fatalf("n=1: a linkless mesh reports %+v", st)
			}
			if n > 1 && (len(st) != 1 || st[0].Name != "tcp" || st[0].FramesRecv != uint64(n-1)) {
				t.Fatalf("n=%d: rank %d stats %+v, want one tcp entry with %d frames received", n, d.Rank(), st, n-1)
			}
		}
		for _, d := range devs {
			d.Close()
		}
	}
}
