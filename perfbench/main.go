// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against real server.Server and
// cluster.Coordinator handlers over loopback HTTP, in one process,
// with a closed loop of clients that each wait for their reply. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it prints
// the per-layer ledger. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -workload search -seed 1 -seconds 10 -trace 0
//
// It exits non-zero when a correctness check fails or the run cannot
// complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"
)

// workload is one topology and the corpus it serves. Every workload
// runs the same phases.
type workload struct {
	name string
	// coordinator selects 3 backends behind a coordinator with R=2
	// instead of one node.
	coordinator bool
	// The initial corpus: corpusSize records of recBytes, among them
	// bases × copies planted near-duplicates.
	corpusSize, bases, copies int
}

// phase is one part of the measured window: its share of the window
// and its op mix, as cards per deck indexed by opKind.
type phase struct {
	share float64
	mix   [numKinds]int
}

// phases split every window, in order: searches, 20% with planted
// neighbours and 80% without, then ingests alone. Ingests mixed in
// with the scans waited on CPU contention with them, which did not
// repeat between runs; on their own they measure the write path.
var phases = []phase{{0.8, [numKinds]int{1, 4, 0}}, {0.2, [numKinds]int{0, 0, 1}}}

// Fixed parameters shared by every workload.
const (
	recBytes      = 1024 // bytes per corpus record and query
	batchMax      = 16   // ingest requests carry 1..batchMax records
	ingestKiBMax  = 16   // of 1..ingestKiBMax KiB each
	snapshotEvery = 4096 // acked records between Server.Snapshot calls
	mergeSample   = 20   // coordinator queries checked against a single node
	setupReps     = 7    // set-ups timed; setup_s is their median
	warmup        = time.Second
)

var workloads = []workload{
	{
		name:       "search",
		corpusSize: 20000, bases: 200, copies: 10,
	},
	{
		name:        "cluster",
		coordinator: true, corpusSize: 15000, bases: 200, copies: 10,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: search or cluster")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	dir := fs.String("dir", ".bench_build", "directory for the run's data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload search|cluster, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	rep, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", e)
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported value. n is the sample count behind it, 0
// when it is not a sample statistic.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report is one run's outcome. metrics are the gated ones
// BENCHMARK.json names; info metrics are printed in the report only.
type report struct {
	stamp     stamp
	attempted int
	failures  []error
	metrics   map[string]metric
	info      map[string]metric
	notes     []string
}

func (r *report) correct() bool { return len(r.failures) == 0 }

func (r *report) print(out io.Writer) error {
	st, err := json.Marshal(r.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# context %s\n", st)
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(len(r.failures)) / float64(r.attempted)
	}
	fmt.Fprintf(out, "# error_rate %.6f (%d failed of %d attempted)\n", errRate, len(r.failures), r.attempted)
	for _, set := range []struct {
		tag string
		m   map[string]metric
	}{{"", r.metrics}, {" (not gated)", r.info}} {
		for _, n := range slices.Sorted(maps.Keys(set.m)) {
			m := set.m[n]
			line := fmt.Sprintf("# %-34s %14.6f %s", n, m.Value, m.Unit)
			if m.n > 0 {
				line += fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Fprintln(out, line+set.tag)
		}
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), len(r.failures), r.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", final)
	return err
}
