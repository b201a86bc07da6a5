// Command benchguard gates benchmark regressions against a checked-in
// baseline (BENCH_baseline.json at the repository root).
//
// It reads `go test -bench -benchmem` output on stdin and compares each
// benchmark against the baseline:
//
//   - allocs/op may grow by at most 25% (plus a 2-alloc absolute slack
//     for tiny counts) — allocation counts are deterministic, so this
//     is a tight gate;
//   - B/op may grow by the same ratio (plus a 1 KiB absolute slack, as
//     map growth makes byte counts mildly machine-dependent) — a change
//     that makes fewer but larger allocations, such as zeroing an
//     oversized slab, shows only here;
//   - ns/op may grow by at most 3× — wall-clock is noisy across
//     machines and -benchtime settings, so the gate only catches
//     order-of-magnitude regressions.
//
// Modes:
//
//	benchguard -baseline BENCH_baseline.json            # gate (default)
//	benchguard -baseline BENCH_baseline.json -update    # rewrite baseline from stdin
//	benchguard -baseline BENCH_baseline.json -extract   # print baseline raw bench
//	                                                    # lines (benchstat old file)
//
// The baseline stores both parsed metrics and the raw benchmark lines,
// so CI can feed `-extract` output and a fresh run to benchstat for a
// human-readable delta while this command enforces the hard gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the BENCH_baseline.json schema.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// Benchmarks maps the normalised benchmark name (no -GOMAXPROCS
	// suffix) to its recorded metrics.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's recorded metrics.
type Entry struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Raw is the original benchmark output line, kept so -extract can
	// reconstruct a benchstat-compatible old file.
	Raw string `json:"raw"`
}

// benchLine matches `go test -bench -benchmem` result lines; bytesCol
// and allocsCol match the -benchmem columns in the rest of such a line.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)
	bytesCol  = regexp.MustCompile(`(\d+) B/op`)
	allocsCol = regexp.MustCompile(`(\d+) allocs/op`)
)

func parseBench(line string) (name string, e Entry, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", Entry{}, false
	}
	e.Raw = line
	e.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
	rest := m[3]
	if bm := bytesCol.FindStringSubmatch(rest); bm != nil {
		e.BytesPerOp, _ = strconv.ParseInt(bm[1], 10, 64)
	}
	if am := allocsCol.FindStringSubmatch(rest); am != nil {
		e.AllocsPerOp, _ = strconv.ParseInt(am[1], 10, 64)
	}
	return m[1], e, true
}

func readInput(r *bufio.Scanner) map[string]Entry {
	out := map[string]Entry{}
	for r.Scan() {
		if name, e, ok := parseBench(r.Text()); ok {
			out[name] = e
		}
	}
	return out
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from stdin instead of gating")
	extract := flag.Bool("extract", false, "print the baseline's raw bench lines (for benchstat)")
	maxNsRatio := flag.Float64("max-ns-ratio", 3.0, "max allowed ns/op growth factor")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.25, "max allowed allocs/op and B/op growth factor")
	flag.Parse()

	if *extract {
		base, err := loadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		for _, name := range sortedKeys(base.Benchmarks) {
			fmt.Println(base.Benchmarks[name].Raw)
		}
		return
	}

	current := readInput(bufio.NewScanner(os.Stdin))
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin (pattern mismatch or build failure?)"))
	}

	if *update {
		base := Baseline{
			Note:       "Regenerate with `make bench-baseline` on a quiet machine; gated by cmd/benchguard (allocs and bytes +25%, ns 3x).",
			Benchmarks: current,
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	failures := 0
	for _, name := range sortedKeys(base.Benchmarks) {
		want := base.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			fmt.Printf("benchguard: FAIL %s: present in baseline but missing from this run\n", name)
			failures++
			continue
		}
		problems := gate(want, got, *maxNsRatio, *maxAllocRatio)
		for _, p := range problems {
			fmt.Printf("benchguard: FAIL %s: %s\n", name, p)
		}
		failures += len(problems)
		if len(problems) == 0 {
			fmt.Printf("benchguard: ok   %s: %.0f ns/op (base %.0f), %d B/op (base %d), %d allocs/op (base %d)\n",
				name, got.NsPerOp, want.NsPerOp, got.BytesPerOp, want.BytesPerOp, got.AllocsPerOp, want.AllocsPerOp)
		}
	}
	for name := range current {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("benchguard: note %s: not in baseline (run `make bench-baseline` to record it)\n", name)
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d benchmark regression(s)", failures))
	}
}

// gate compares one benchmark's run against its baseline entry and
// describes every bound it breaks: allocs/op and B/op may grow by
// allocRatio (plus a small absolute slack each), ns/op by nsRatio.
func gate(want, got Entry, nsRatio, allocRatio float64) []string {
	var problems []string
	// Allocations: deterministic, tight gate with small absolute slack.
	if allocCap := int64(float64(want.AllocsPerOp)*allocRatio) + 2; got.AllocsPerOp > allocCap {
		problems = append(problems, fmt.Sprintf("%d allocs/op exceeds cap %d (baseline %d)",
			got.AllocsPerOp, allocCap, want.AllocsPerOp))
	}
	if bytesCap := int64(float64(want.BytesPerOp)*allocRatio) + 1024; got.BytesPerOp > bytesCap {
		problems = append(problems, fmt.Sprintf("%d B/op exceeds cap %d (baseline %d)",
			got.BytesPerOp, bytesCap, want.BytesPerOp))
	}
	// Wall clock: loose gate, catches order-of-magnitude regressions.
	if want.NsPerOp > 0 && got.NsPerOp > want.NsPerOp*nsRatio {
		problems = append(problems, fmt.Sprintf("%.0f ns/op exceeds %.1fx baseline %.0f",
			got.NsPerOp, nsRatio, want.NsPerOp))
	}
	return problems
}

func loadBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parsing %s: %w", path, err)
	}
	return base, nil
}

func sortedKeys(m map[string]Entry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
