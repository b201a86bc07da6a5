// Command perfbench is CourseNavigator's end-to-end serving benchmark.
// It starts the HTTP service in process on a loopback port, drives one
// seeded workload against it over at most maxConns connections, checks
// every answer, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer breakdown from a traced replay of the same requests).
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{name:{"value":v,"unit":u}}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// Workloads: interactive, cold_engine, cohort, mixed (see BENCHMARK.json
// for why each exists and which metrics each one moves).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are the human-readable lines printed before the JSON line:
	// sample counts and anything a reader needs to interpret a value.
	notes []string
}

func (r *result) set(name string, v float64, unit string, note string, args ...any) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-28s %14.4f %-6s", name, v, unit)
	if note != "" {
		line += "  " + fmt.Sprintf(note, args...)
	}
	r.notes = append(r.notes, line)
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]bool{"interactive": true, "cold_engine": true, "cohort": true, "mixed": true}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "interactive", "interactive | cold_engine | cohort | mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&secs, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.seconds, cfg.trace = float64(secs), trace == 1
	if !workloads[cfg.workload] || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// The server logs every reload; keep the benchmark's output to its
	// own report.
	log.SetOutput(io.Discard)
	began := time.Now()
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v done in %.1fs\n", cfg.workload, cfg.seed, cfg.trace, time.Since(began).Seconds())
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
