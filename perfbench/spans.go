package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the spans one rank keeps; later ones are counted as
// dropped so a long traced run cannot grow without limit.
const maxSpans = 1 << 18

// spanDir is where the traced mode writes its spans.
var spanDir = filepath.Join(".bench_build", "spans")

// traceEpoch is the common time base of every rank's spans.
var traceEpoch = time.Now()

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Op; Parent
// is the index of the enclosing span on the same rank, or -1.
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one rank's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths pay one branch.
type tracer struct {
	rank    int
	spans   []span
	dropped int64
}

func newTracer(rank int) *tracer {
	return &tracer{rank: rank, spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its index, or -1 when nothing is kept.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Rank: t.rank, Op: op, Parent: parent, Start: int64(time.Since(traceEpoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(traceEpoch))
}

// spanStats are the durations and self times, in µs, of every span of
// one name; self time is the duration minus the time child spans cover.
type spanStats struct{ dur, self []float64 }

func summarize(ts ...*tracer) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStats{}
				out[s.Name] = st
			}
			d := s.End - s.Start
			st.dur = append(st.dur, float64(d)/1e3)
			st.self = append(st.self, float64(d-child[i])/1e3)
		}
	}
	return out
}

// writeSpans writes every kept span as one JSON line to path and
// returns how many were dropped for want of room.
func writeSpans(path string, ts ...*tracer) (dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		dropped += t.dropped
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return dropped, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return dropped, fmt.Errorf("writing spans: %w", err)
	}
	return dropped, f.Close()
}
