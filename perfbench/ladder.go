package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sync"
	"time"

	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
	"gompi/mpi"
	"gompi/mpi/typed"
)

// The traced mode runs the workload with spans recorded around every
// call it makes into the library (alternating traced and untraced
// rounds), reads the pvars at the same boundaries, and then climbs the
// layer ladder: each rung times one layer's public functions from
// outside, and a layer's self time is its rung minus the rung below.
// Every rung names the end-to-end metric and workload it should move.
var rungs = []struct{ name, unit, predicts string }{
	{"transport.tcp.oneway_p50_us", "us", "solve_s @ pt2pt_tcp"},
	{"transport.tcp.bulk_MBps", "MB/s", "bulk_MBps @ pt2pt_tcp"},
	{"transport.chan.oneway_p50_us", "us", "solve_s @ stencil (predicted negligible)"},
	{"transport.pool_hit_rate", "ratio", "allocs_per_op @ all"},
	{"core.oneway_p50_us", "us", "solve_s @ pt2pt_tcp"},
	{"core.self_us", "us", "solve_s @ pt2pt_tcp"},
	{"core.deepq_oneway_p50_us", "us", "deepq_lat_p50_us @ pt2pt_tcp"},
	{"core.match_us", "us", "deepq_lat_p50_us @ pt2pt_tcp; zero on solve_s @ stencil, object_ring"},
	{"core.unexpected_ratio", "ratio", "lat_p90_us @ stencil"},
	{"core.rndv_share", "ratio", "bulk_MBps @ pt2pt_tcp"},
	{"core.copy_ratio", "ratio", "bulk_MBps @ pt2pt_tcp"},
	{"mpi.oneway_p50_us", "us", "solve_s @ pt2pt_tcp"},
	{"mpi.self_us", "us", "solve_s @ pt2pt_tcp"},
	{"mpi.object_self_us", "us", "solve_s @ object_ring"},
	{"typed.allreduce_self_us", "us", "solve_s @ stencil"},
	{"coll.allreduce_p50_us", "us", "solve_s @ stencil"},
	{"coll.iallreduce_p50_us", "us", "solve_s @ stencil"},
	{"coll.allreduce_init_p50_us", "us", "solve_s @ stencil"},
	{"coll.park_ratio", "ratio", "lat_p90_us @ stencil"},
	{"coll.wait_us", "us", "solve_s @ stencil"},
	{"dtype.vector_pack_us", "us", "solve_s @ stencil"},
	{"dtype.vector_unpack_us", "us", "solve_s @ stencil"},
	{"dtype.object_pack_us", "us", "solve_s @ object_ring"},
	{"dtype.object_unpack_us", "us", "solve_s @ object_ring"},
	{"dtype.object_wire_bytes", "bytes", "bulk_MBps @ object_ring"},
	{"dtype.object_allocs", "count", "allocs_per_op @ object_ring"},
	{"stencil.compute_us", "us", "solve_s @ stencil"},
	{"stencil.halo_wait_us", "us", "solve_s @ stencil"},
	{"stencil.serial_sweep_us", "us", "solve_s @ stencil (single-rank baseline)"},
	{"obs.armed_overhead_pct", "%", "solve_s @ pt2pt_tcp"},
	{"bench.trace_overhead_pct", "%", "none: the traced run against the untraced one"},
	{"bench.lat_p50_us", "us", "none: the workload's median operation time, untraced rounds"},
}

const (
	rawOps    = 20000 // 8-byte round trips per latency rung
	rawBulk   = 200   // 1 MiB round trips per bandwidth rung
	collOps   = 5000  // reductions per collective rung
	objectOps = 200   // batch round trips per OBJECT rung
	packOps   = 400   // encodes per codec rung
	armedOps  = 1500  // round trips per armed or disarmed job
	// rungJobs is how many fresh device pairs or jobs a latency rung
	// pools: the scheduler's fast/slow regime over loopback TCP is drawn
	// per job, so one job's median is a coin toss between two modes.
	rungJobs = 8
)

// pooled runs a latency rung rungJobs times and pools the samples.
func pooled(rung func() ([]float64, error)) ([]float64, error) {
	var all []float64
	for i := 0; i < rungJobs; i++ {
		xs, err := rung()
		if err != nil {
			return nil, err
		}
		all = append(all, xs...)
	}
	return all, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerReport turns a traced job of workload w into the per-layer
// metrics: ratios from the job's pvars, the ladder rungs, and the spans
// written to disk.
func layerReport(j *runState, w string, seed int64) (*report, error) {
	v := map[string]float64{}
	pv := func(n string) float64 { return float64(j.pv[n]) }
	v["core.unexpected_ratio"] = ratio(pv("core.recvs_unexpected"), pv("core.recvs_unexpected")+pv("core.recvs_matched"))
	v["core.rndv_share"] = ratio(pv("core.sends_rndv"), pv("core.sends_eager")+pv("core.sends_sync")+pv("core.sends_rndv"))
	v["core.copy_ratio"] = ratio(pv("core.bytes_copied"), pv("core.bytes_recv"))
	v["coll.park_ratio"] = ratio(pv("coll.scheds_parked"), pv("coll.scheds_started"))
	v["transport.pool_hit_rate"] = ratio(float64(j.pool.Hits), float64(j.pool.Gets))
	off, on := quantile(j.sets[0].base, 0.5), quantile(j.sets[1].base, 0.5)
	v["bench.trace_overhead_pct"] = 100 * (on - off) / off
	v["bench.lat_p50_us"] = off

	if err := climb(seed, v, &j.tally); err != nil {
		return nil, err
	}

	r := newReport()
	r.attempted, r.failed = j.tally.attempted.Load(), j.tally.failed.Load()
	for _, g := range rungs {
		x, ok := v[g.name]
		if !ok {
			return nil, fmt.Errorf("ladder rung %s was not measured", g.name)
		}
		r.add(g.name, g.unit, x)
		fmt.Printf("# rung %-30s %12.4f %-5s -> %s\n", g.name, x, g.unit, g.predicts)
	}
	sum := summarize(j.spans[:]...)
	for _, n := range sortedKeys(sum) {
		s := sum[n]
		fmt.Printf("# span %-22s n=%-8d dur_p50=%.3fus self_p50=%.3fus\n", n, len(s.dur), quantile(s.dur, 0.5), quantile(s.self, 0.5))
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-%d.jsonl", w, seed))
	dropped, err := writeSpans(path, j.spans[:]...)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s (%d dropped)\n", path, dropped)
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// climb measures every ladder rung into v, counting verifications in t.
func climb(seed int64, v map[string]float64, t *tally) error {
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	eight := make([]byte, 8)
	for i := range eight {
		eight[i] = byte(mix(seed, int64(i)))
	}
	payloads, _ := bulkPayloads(seed)

	// Device: raw frames, no engine.
	tcp8, err := pooled(func() ([]float64, error) { return rawRung("tcp", eight, rawOps/rungJobs, t) })
	if err != nil {
		return err
	}
	v["transport.tcp.oneway_p50_us"] = p50(tcp8) / 2
	tcpBulk, err := rawRung("tcp", payloads[0], rawBulk, t)
	if err != nil {
		return err
	}
	v["transport.tcp.bulk_MBps"] = 2 * bulkSize / p50(tcpBulk)
	chan8, err := pooled(func() ([]float64, error) { return rawRung("chan", eight, rawOps/rungJobs, t) })
	if err != nil {
		return err
	}
	v["transport.chan.oneway_p50_us"] = p50(chan8) / 2

	// Engine: core.Proc over the same tcp device.
	core8, err := pooled(func() ([]float64, error) { return coreRung(false, rawOps/rungJobs, t) })
	if err != nil {
		return err
	}
	v["core.oneway_p50_us"] = p50(core8) / 2
	v["core.self_us"] = v["core.oneway_p50_us"] - v["transport.tcp.oneway_p50_us"]
	coreDeep, err := pooled(func() ([]float64, error) { return coreRung(true, rawOps/rungJobs, t) })
	if err != nil {
		return err
	}
	v["core.deepq_oneway_p50_us"] = p50(coreDeep) / 2
	v["core.match_us"] = v["core.deepq_oneway_p50_us"] - v["core.oneway_p50_us"]

	// Binding: classic Send/RecvInto over tcp.
	mpi8, err := pooled(func() ([]float64, error) { return mpiRung(false, rawOps/rungJobs, t) })
	if err != nil {
		return err
	}
	v["mpi.oneway_p50_us"] = p50(mpi8) / 2
	v["mpi.self_us"] = v["mpi.oneway_p50_us"] - v["core.oneway_p50_us"]

	// Codec: OBJECT and the halo vector through dtype.Pack/Unpack.
	if err := dtypeRungs(seed, v, t); err != nil {
		return err
	}
	obj, raw, err := objectRung(seed, int(v["dtype.object_wire_bytes"]), t)
	if err != nil {
		return err
	}
	v["mpi.object_self_us"] = p50(obj)/2 - v["dtype.object_pack_us"] - v["dtype.object_unpack_us"] - p50(raw)/2

	// Collectives: blocking, pooled and persistent Allreduce, and the
	// typed wrapper over the blocking one.
	if err := collRungs(v, t); err != nil {
		return err
	}

	// Application: a traced stencil solve and its serial baseline.
	app, err := stencil(seed, 300*time.Millisecond, true, mpi.RunOptions{})
	if err != nil {
		return err
	}
	t.attempted.Add(app.tally.attempted.Load())
	t.failed.Add(app.tally.failed.Load())
	sum := summarize(app.spans[0])
	for name, key := range map[string]string{
		"compute": "stencil.compute_us", "halo.wait": "stencil.halo_wait_us", "typed.AllreduceOne": "coll.wait_us",
	} {
		s, ok := sum[name]
		if !ok {
			return fmt.Errorf("stencil rung recorded no %s spans", name)
		}
		v[key] = p50(s.self)
	}
	var serial []float64
	g0 := seedGrid(seed)
	for i := 0; i < 5; i++ {
		serial = append(serial, serialSolve(g0).sweep...)
	}
	v["stencil.serial_sweep_us"] = p50(serial)

	// Observability: the binding rung with the flight recorder armed,
	// in jobs interleaved with disarmed ones so drift cancels. Means, not
	// medians, are compared: the median of a bimodal latency moves with
	// the regime mix far more than an armed recorder moves it.
	var off, on []float64
	for i := 0; i < rungJobs; i++ {
		for _, armed := range []bool{false, true} {
			xs, err := mpiRung(armed, armedOps, t)
			if err != nil {
				return err
			}
			if armed {
				on = append(on, xs...)
			} else {
				off = append(off, xs...)
			}
		}
	}
	v["obs.armed_overhead_pct"] = 100 * (mean(on) - mean(off)) / mean(off)
	return nil
}

// rawPair builds a two-endpoint device job without any engine.
func rawPair(device string) ([]transport.Device, error) {
	switch device {
	case "tcp":
		devs, err := transport.NewLoopbackJob(np)
		if err != nil {
			return nil, err
		}
		return []transport.Device{devs[0], devs[1]}, nil
	case "chan":
		devs := transport.NewShmJob(np, 0)
		return []transport.Device{devs[0], devs[1]}, nil
	}
	return nil, fmt.Errorf("unknown device %q", device)
}

// takeFrame takes over the storage behind a received frame's bytes so
// they can be sent straight back.
func takeFrame(f transport.Frame) []byte {
	if f.Payload != nil {
		b := f.Payload
		f.DetachPayload()
		return b
	}
	return f.Data
}

// rawRung ping-pongs payload n times over a fresh device pair with
// Sendv/Recv; the echo side checks the CRC of every frame and rank 0
// checks the echo. It returns round-trip times in µs, warm-up dropped.
func rawRung(device string, payload []byte, n int, t *tally) ([]float64, error) {
	devs, err := rawPair(device)
	if err != nil {
		return nil, fmt.Errorf("%s device pair: %w", device, err)
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	want := crc32.ChecksumIEEE(payload)
	warm := n / 10
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < warm+n; i++ {
			f, err := devs[1].Recv()
			if err != nil {
				echoErr <- err
				return
			}
			b := takeFrame(f)
			t.check(crc32.ChecksumIEEE(b) == want)
			if err := devs[1].Sendv(0, nil, b, true); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	cur := transport.GetBuf(len(payload))
	copy(cur, payload)
	rtt := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		t0 := time.Now()
		if err := devs[0].Sendv(1, nil, cur, true); err != nil {
			return nil, err
		}
		f, err := devs[0].Recv()
		if err != nil {
			return nil, err
		}
		cur = takeFrame(f)
		if i >= warm {
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if len(cur) <= 64 || i%16 == 0 {
			t.check(crc32.ChecksumIEEE(cur) == want)
		}
	}
	transport.PutBuf(cur)
	if err := <-echoErr; err != nil {
		return nil, fmt.Errorf("%s echo: %w", device, err)
	}
	return rtt, nil
}

// coreRung ping-pongs 8 bytes through core.Proc Isend/IrecvInto over
// tcp, optionally with deepDepth receives posted on another context.
func coreRung(deep bool, n int, t *tally) ([]float64, error) {
	devs, err := rawPair("tcp")
	if err != nil {
		return nil, fmt.Errorf("tcp device pair: %w", err)
	}
	procs := []*core.Proc{core.NewProc(devs[0], core.Config{}), core.NewProc(devs[1], core.Config{})}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	const ctx, deepCtx, tag = 0, 9, 1
	var posted [np][]*core.Request
	if deep {
		for r, p := range procs {
			for i := 0; i < deepDepth; i++ {
				posted[r] = append(posted[r], p.IrecvInto(deepCtx, int32(1-r), tagDeep, make([]byte, 1), 1))
			}
		}
	}
	warm := n / 10
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < warm+n; i++ {
			r := procs[1].IrecvInto(ctx, 0, tag, buf, 1)
			if st := r.Wait(); st.Err != nil {
				echoErr = st.Err
				return
			}
			r.Recycle()
			t.check(buf[0] == byte(i))
			s, err := procs[1].Isend(ctx, 1, 0, tag, buf, core.ModeStandard, false)
			if err != nil {
				echoErr = err
				return
			}
			s.Wait()
			s.Recycle()
		}
	}()
	out, in := make([]byte, 8), make([]byte, 8)
	rtt := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		out[0] = byte(i)
		t0 := time.Now()
		s, err := procs[0].Isend(ctx, 0, 1, tag, out, core.ModeStandard, false)
		if err != nil {
			return nil, err
		}
		s.Wait()
		s.Recycle()
		r := procs[0].IrecvInto(ctx, 1, tag, in, 1)
		if st := r.Wait(); st.Err != nil {
			return nil, st.Err
		}
		r.Recycle()
		if i >= warm {
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		t.check(in[0] == byte(i))
	}
	wg.Wait()
	if echoErr != nil {
		return nil, fmt.Errorf("core echo: %w", echoErr)
	}
	for r, p := range procs {
		for _, q := range posted[r] {
			p.Cancel(q)
			q.Wait()
			q.Recycle()
		}
	}
	return rtt, nil
}

// mpiRung ping-pongs 8 bytes with the classic binding's Send/RecvInto
// over tcp, with the flight recorder armed or not.
func mpiRung(armed bool, n int, t *tally) ([]float64, error) {
	warm := n / 10
	rtt := make([]float64, 0, n)
	err := mpi.RunWith(mpi.RunOptions{NP: np, Device: "tcp", Trace: armed}, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		buf := make([]byte, 8)
		bufB := any(buf)
		for i := 0; i < warm+n; i++ {
			if rank == 1 {
				if _, err := world.RecvInto(bufB, 0, 8, mpi.BYTE, 0, tagLat); err != nil {
					return err
				}
				t.check(buf[0] == byte(i))
				if err := world.Send(bufB, 0, 8, mpi.BYTE, 0, tagLat); err != nil {
					return err
				}
				continue
			}
			buf[0] = byte(i)
			t0 := time.Now()
			if err := world.Send(bufB, 0, 8, mpi.BYTE, 1, tagLat); err != nil {
				return err
			}
			if _, err := world.RecvInto(bufB, 0, 8, mpi.BYTE, 1, tagLat); err != nil {
				return err
			}
			if i >= warm {
				rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			t.check(buf[0] == byte(i))
		}
		return nil
	})
	return rtt, err
}

// objectRung ping-pongs the seeded batch as OBJECT, then a byte buffer
// of the batch's wire size, over chan; it returns both round-trip
// series in µs.
func objectRung(seed int64, wire int, t *tally) (obj, raw []float64, err error) {
	want := seedBatch(seed)
	err = mpi.RunWith(mpi.RunOptions{NP: np, Device: ringDev}, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		batch := make([]any, ringBatch)
		for i := range want {
			batch[i] = want[i]
		}
		in := make([]any, ringBatch)
		bytesBuf := make([]byte, wire)
		batchB, inB, bytesB := any(batch), any(in), any(bytesBuf)
		warm := objectOps / 10
		for i := 0; i < warm+objectOps; i++ {
			t0 := time.Now()
			if rank == 0 {
				if err := world.Send(batchB, 0, ringBatch, mpi.OBJECT, 1, tagRing); err != nil {
					return err
				}
			}
			if _, err := world.Recv(inB, 0, ringBatch, mpi.OBJECT, 1-rank, tagRing); err != nil {
				return err
			}
			if rank == 1 {
				if err := world.Send(inB, 0, ringBatch, mpi.OBJECT, 0, tagRing); err != nil {
					return err
				}
			} else if i >= warm {
				obj = append(obj, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			for k := range in {
				t.check(sameParticle(in[k], want[k], 0))
			}
		}
		for i := 0; i < warm+objectOps; i++ {
			t0 := time.Now()
			if rank == 0 {
				if err := world.Send(bytesB, 0, wire, mpi.BYTE, 1, tagLat); err != nil {
					return err
				}
			}
			if _, err := world.RecvInto(bytesB, 0, wire, mpi.BYTE, 1-rank, tagLat); err != nil {
				return err
			}
			if rank == 1 {
				if err := world.Send(bytesB, 0, wire, mpi.BYTE, 0, tagLat); err != nil {
					return err
				}
			} else if i >= warm {
				raw = append(raw, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		return nil
	})
	return obj, raw, err
}

// dtypeRungs times dtype.Pack/Unpack of the stencil's halo column and of
// the ring's OBJECT batch, from outside the binding.
func dtypeRungs(seed int64, v map[string]float64, t *tally) error {
	f64 := dtype.BasicType(dtype.F64)
	w := (gridN-2)/np + 2
	col, err := dtype.Vector(gridN, 1, w, f64)
	if err != nil {
		return err
	}
	col.Commit()
	g := seedGrid(seed)[:gridN*w]
	dst := make([]byte, 0, gridN*8)
	const batchN = 100
	var pack, unpack []float64
	for i := 0; i < packOps; i++ {
		t0 := time.Now()
		for k := 0; k < batchN; k++ {
			if dst, err = dtype.Pack(dst[:0], g, w-2, 1, col); err != nil {
				return err
			}
		}
		pack = append(pack, float64(time.Since(t0).Nanoseconds())/1e3/batchN)
		t0 = time.Now()
		for k := 0; k < batchN; k++ {
			if _, err = dtype.Unpack(dst, g, w-1, 1, col); err != nil {
				return err
			}
		}
		unpack = append(unpack, float64(time.Since(t0).Nanoseconds())/1e3/batchN)
	}
	for i := 0; i < gridN; i++ {
		t.check(g[i*w+w-1] == g[i*w+w-2])
	}
	v["dtype.vector_pack_us"] = quantile(pack, 0.5)
	v["dtype.vector_unpack_us"] = quantile(unpack, 0.5)

	obj := dtype.BasicType(dtype.Obj)
	want := seedBatch(seed)
	batch, in := make([]any, ringBatch), make([]any, ringBatch)
	for i := range want {
		batch[i] = want[i]
	}
	m := newMemMeter()
	pack, unpack = pack[:0], unpack[:0]
	var wire []byte
	a0 := m.read()
	for i := 0; i < packOps; i++ {
		t0 := time.Now()
		if wire, err = dtype.Pack(wire[:0], batch, 0, ringBatch, obj); err != nil {
			return err
		}
		pack = append(pack, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if _, err = dtype.Unpack(wire, in, 0, ringBatch, obj); err != nil {
			return err
		}
		unpack = append(unpack, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	allocs := m.read() - a0
	for k := range in {
		t.check(sameParticle(in[k], want[k], 0))
	}
	v["dtype.object_pack_us"] = quantile(pack, 0.5)
	v["dtype.object_unpack_us"] = quantile(unpack, 0.5)
	v["dtype.object_wire_bytes"] = float64(len(wire))
	v["dtype.object_allocs"] = float64(allocs) / packOps
	return nil
}

// collRungs times one-double MAX reductions on chan: the classic
// blocking Allreduce, Iallreduce+Wait (the pool path), a persistent
// AllreduceInit Start+Wait, and typed.AllreduceOne over the blocking one.
func collRungs(v map[string]float64, t *tally) error {
	var blocking, pooled, persistent, typedOne []float64
	err := mpi.RunWith(mpi.RunOptions{NP: np, Device: "chan"}, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		send, recv := make([]float64, 1), make([]float64, 1)
		sendB, recvB := any(send), any(recv)
		pers, err := world.AllreduceInit(sendB, 0, recvB, 0, 1, mpi.DOUBLE, mpi.MAX)
		if err != nil {
			return err
		}
		defer pers.Free()
		ops := []struct {
			out *[]float64
			run func() (float64, error)
		}{
			{&blocking, func() (float64, error) {
				err := world.Allreduce(sendB, 0, recvB, 0, 1, mpi.DOUBLE, mpi.MAX)
				return recv[0], err
			}},
			{&pooled, func() (float64, error) {
				req, err := world.Iallreduce(sendB, 0, recvB, 0, 1, mpi.DOUBLE, mpi.MAX)
				if err != nil {
					return 0, err
				}
				_, err = req.Wait()
				return recv[0], err
			}},
			{&persistent, func() (float64, error) {
				if err := pers.Start(); err != nil {
					return 0, err
				}
				_, err := pers.Wait()
				return recv[0], err
			}},
			{&typedOne, func() (float64, error) {
				return typed.AllreduceOne(world, send[0], typed.Max[float64]())
			}},
		}
		warm := collOps / 10
		for _, o := range ops {
			for i := 0; i < warm+collOps; i++ {
				send[0] = float64(2*i + rank)
				t0 := time.Now()
				got, err := o.run()
				if err != nil {
					return err
				}
				if rank == 0 && i >= warm {
					*o.out = append(*o.out, float64(time.Since(t0).Nanoseconds())/1e3)
				}
				t.check(got == float64(2*i+1))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["coll.allreduce_p50_us"] = quantile(blocking, 0.5)
	v["coll.iallreduce_p50_us"] = quantile(pooled, 0.5)
	v["coll.allreduce_init_p50_us"] = quantile(persistent, 0.5)
	v["typed.allreduce_self_us"] = quantile(typedOne, 0.5) - v["coll.allreduce_p50_us"]
	if math.IsNaN(v["typed.allreduce_self_us"]) {
		return fmt.Errorf("collective rungs recorded no samples")
	}
	return nil
}
