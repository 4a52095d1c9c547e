// Command perfbench is gompi's benchmark: three SPMD workloads run as
// in-process jobs (two goroutine ranks, closed loop, one outstanding
// operation per rank), every output verified, and a separate traced mode
// that times each layer's public functions from outside and reports the
// per-layer ladder, each rung as its delta from the rung below.
//
//	perfbench --workload pt2pt_tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it start with
// '#' and carry the machine fingerprint and a readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is the source revision, set at build time by run.sh with
// -ldflags "-X main.commit=...".
var commit = "unknown"

// np is the job size of every workload: two ranks for the two cores the
// benchmark was tuned on. With four ranks on two cores the stencil's
// sweep median swung from 272 to 447 µs between runs.
const np = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: the counts of verified operations
// and the metrics in the order they were added.
type report struct {
	attempted, failed int64
	names             []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name, unit string, v float64) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one named workload for d and fills a report. With trace
// set it runs the workload's traced variant plus the layer ladder.
type workload struct {
	why    string
	device string
	run    func(seed int64, d time.Duration) (*report, error)
	traced func(seed int64, d time.Duration) (*report, error)
}

var workloads = map[string]workload{
	"pt2pt_tcp": {
		why:    "transport framing/syscalls and core matching do the work; the deep-queue phase is where matching cost dominates",
		device: "tcp", run: runPt2pt, traced: tracedPt2pt,
	},
	"stencil": {
		why:    "blocking collectives, the strided vector pack and mpi/typed do the work; transport is trivial and queues shallow",
		device: "chan", run: runStencil, traced: tracedStencil,
	},
	"object_ring": {
		why:    "the gob OBJECT codec does the work; same point-to-point calls as pt2pt_tcp through another datatype path",
		device: "chan", run: runRing, traced: tracedRing,
	},
}

func main() {
	name := flag.String("workload", "", "workload: pt2pt_tcp, stencil or object_ring")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end metrics")
	flag.StringVar(&spanDir, "spans", spanDir, "directory the traced mode writes its spans to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	// A stuck rank must not hang the run: give up within three minutes.
	limit := 2*d + 60*time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, limit)
		os.Exit(3)
	})

	fp := fingerprint()
	fpj, _ := json.Marshal(fp)
	fmt.Printf("# fingerprint %s\n", fpj)
	fmt.Printf("# workload %s (np=%d, closed loop, one outstanding op per rank, device %s): %s\n", *name, np, w.device, w.why)

	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	r, err := run(*seed, d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted > 0 {
		fmt.Printf("# %-32s %14.6g %s\n", "error_rate", float64(r.failed)/float64(r.attempted), "1")
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(result{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// fingerprint identifies the machine and build a result came from.
func fingerprint() map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sortedKeys returns m's keys in order (stable output for maps).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
