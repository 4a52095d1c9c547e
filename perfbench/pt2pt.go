package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"gompi/mpi"
)

// pt2pt_tcp: two ranks over loopback TCP, classic Send/RecvInto. Each
// round runs 8-byte round trips with empty queues, the same round trips
// with deepDepth receives posted on a Dup'd communicator, and 1 MiB
// round trips (rendezvous, above the 64 KiB eager limit) that both ends
// CRC-check.
const (
	tagLat      = 1
	tagBulk     = 2
	latOps      = 1500
	deepLatOps  = 1000
	bulkSize    = 1 << 20
	bulkOps     = 8
	bulkBuffers = 4
)

// mix is a splitmix64 step: the 8-byte payload of operation op.
func mix(seed, op int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bulkPayloads returns the seeded 1 MiB payloads and their CRCs.
func bulkPayloads(seed int64) ([][]byte, []uint32) {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]byte, bulkBuffers)
	crcs := make([]uint32, bulkBuffers)
	for i := range bufs {
		bufs[i] = make([]byte, bulkSize)
		rng.Read(bufs[i])
		crcs[i] = crc32.ChecksumIEEE(bufs[i])
	}
	return bufs, crcs
}

func runPt2pt(seed int64, d time.Duration) (*report, error) {
	j, err := pt2pt(seed, d, false, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return j.endToEnd()
}

func tracedPt2pt(seed int64, d time.Duration) (*report, error) {
	j, err := pt2pt(seed, d, true, mpi.RunOptions{})
	if err != nil {
		return nil, err
	}
	return layerReport(j, "pt2pt_tcp", seed)
}

// pt2pt runs the workload; the tests corrupt payloads through
// opt.WrapDevice.
func pt2pt(seed int64, d time.Duration, traced bool, opt mpi.RunOptions) (*runState, error) {
	j := newRunState(traced)
	j.bulkBytes = 2 * bulkSize
	payloads, crcs := bulkPayloads(seed)
	opt.NP, opt.Device = np, "tcp"
	err := j.rounds(opt, d, func(env *mpi.Env, rc roundCtx) error {
		world := env.CommWorld()
		rank := world.Rank()
		peer := 1 - rank
		// Buffers are boxed once: converting a slice to the binding's
		// `any` parameter on every call would allocate.
		out, in := make([]byte, 8), make([]byte, 8)
		outB, inB := any(out), any(in)
		rbuf := make([]byte, bulkSize)
		rbufB := any(rbuf)
		payloadsB := make([]any, len(payloads))
		for i, p := range payloads {
			payloadsB[i] = p
		}
		var op int64 // operation counter; both ranks step it alike

		// pingpong is one 8-byte round trip, timed on rank 0 as half
		// the round trip (one-way latency).
		pingpong := func(rc roundCtx) func(int) error {
			return func(int) error {
				op++
				v := mix(seed, op)
				if rank == 1 {
					s := rc.tr.begin("mpi.RecvInto", op, -1)
					if _, err := world.RecvInto(inB, 0, 8, mpi.BYTE, peer, tagLat); err != nil {
						return err
					}
					rc.tr.end(s)
					ok := binary.LittleEndian.Uint64(in) == v
					s = rc.tr.begin("mpi.Send", op, -1)
					if err := world.Send(inB, 0, 8, mpi.BYTE, peer, tagLat); err != nil {
						return err
					}
					rc.tr.end(s)
					j.tally.check(ok)
					return nil
				}
				root := rc.tr.begin("op", op, -1)
				binary.LittleEndian.PutUint64(out, v)
				s := rc.tr.begin("mpi.Send", op, root)
				if err := world.Send(outB, 0, 8, mpi.BYTE, peer, tagLat); err != nil {
					return err
				}
				rc.tr.end(s)
				s = rc.tr.begin("mpi.RecvInto", op, root)
				if _, err := world.RecvInto(inB, 0, 8, mpi.BYTE, peer, tagLat); err != nil {
					return err
				}
				rc.tr.end(s)
				rc.tr.end(root)
				j.tally.check(binary.LittleEndian.Uint64(in) == v)
				return nil
			}
		}

		var bulkN int
		bulk := func(int) error {
			k := bulkN % bulkBuffers
			bulkN++
			if rank == 1 {
				if _, err := world.RecvInto(rbufB, 0, bulkSize, mpi.BYTE, peer, tagBulk); err != nil {
					return err
				}
				if err := world.Send(rbufB, 0, bulkSize, mpi.BYTE, peer, tagBulk); err != nil {
					return err
				}
				j.tally.check(crc32.ChecksumIEEE(rbuf) == crcs[k])
				return nil
			}
			if err := world.Send(payloadsB[k], 0, bulkSize, mpi.BYTE, peer, tagBulk); err != nil {
				return err
			}
			_, err := world.RecvInto(rbufB, 0, bulkSize, mpi.BYTE, peer, tagBulk)
			return err
		}
		// Rank 0 verifies the echo outside the timed round trip.
		bulkCheck := func(int) error {
			if rank == 0 {
				k := (bulkN - 1) % bulkBuffers
				j.tally.check(crc32.ChecksumIEEE(rbuf) == crcs[k] && bytes.Equal(rbuf[:64], payloads[k][:64]))
			}
			return nil
		}

		t0 := time.Now()
		if err := j.timed(rc, latOps, 2, &rc.set.base, pingpong(rc), nil); err != nil {
			return fmt.Errorf("8-byte round trips: %w", err)
		}
		if rc.record {
			rc.set.solve = append(rc.set.solve, time.Since(t0).Seconds())
		}

		err := withDeepQueue(world, func() error {
			return j.timed(rc, deepLatOps, 2, &rc.set.deep, pingpong(rc.untraced()), nil)
		})
		if err != nil {
			return fmt.Errorf("deep-queue round trips: %w", err)
		}

		if err := j.timed(rc, bulkOps, 1, &rc.set.bulk, bulk, bulkCheck); err != nil {
			return fmt.Errorf("1 MiB round trips: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}
