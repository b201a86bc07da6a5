package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
		want string // normalised benchmark name
		ns   float64
		b    int64
		a    int64
	}{
		{
			name: "benchmem columns",
			line: "BenchmarkExploreCold      \t      20\t   9052997 ns/op\t 6563890 B/op\t    9143 allocs/op",
			ok:   true, want: "BenchmarkExploreCold", ns: 9052997, b: 6563890, a: 9143,
		},
		{
			name: "gomaxprocs suffix stripped",
			line: "BenchmarkFrontierHeapGeneric-8 \t      20\t    199098 ns/op\t   32768 B/op\t       1 allocs/op",
			ok:   true, want: "BenchmarkFrontierHeapGeneric", ns: 199098, b: 32768, a: 1,
		},
		{
			// ReportMetric columns sit between ns/op and the -benchmem
			// columns; they must neither break parsing nor leak into the
			// bytes/allocs fields.
			name: "custom metric column",
			line: "BenchmarkGoalStream \t      20\t    364427 ns/op\t      1679 paths/op\t   46856 B/op\t    5443 allocs/op",
			ok:   true, want: "BenchmarkGoalStream", ns: 364427, b: 46856, a: 5443,
		},
		{
			name: "custom metric without benchmem",
			line: "BenchmarkDAGCount-4 \t     100\t   2540907 ns/op\t    117030 paths/op",
			ok:   true, want: "BenchmarkDAGCount", ns: 2540907, b: 0, a: 0,
		},
		{
			name: "sub-benchmark path with key=value segments",
			line: "BenchmarkCountTreeVsDAG/semesters=6/substrate=dag-8 \t       1\t2117034920 ns/op\t 251391624 B/op\t     695 allocs/op",
			ok:   true, want: "BenchmarkCountTreeVsDAG/semesters=6/substrate=dag", ns: 2117034920, b: 251391624, a: 695,
		},
		{
			name: "fractional ns/op",
			line: "BenchmarkBitsetHas \t1000000000\t         0.25 ns/op",
			ok:   true, want: "BenchmarkBitsetHas", ns: 0.25,
		},
		{name: "pass line", line: "PASS"},
		{name: "ok line", line: "ok  \trepro/internal/explore\t0.069s"},
		{name: "goos header", line: "goos: linux"},
		{name: "empty", line: ""},
		{name: "benchmark definition, no results", line: "BenchmarkGoalStream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name, e, ok := parseBench(tc.line)
			if ok != tc.ok {
				t.Fatalf("parseBench(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			}
			if !ok {
				return
			}
			if name != tc.want {
				t.Errorf("name = %q, want %q", name, tc.want)
			}
			if e.NsPerOp != tc.ns {
				t.Errorf("NsPerOp = %v, want %v", e.NsPerOp, tc.ns)
			}
			if e.BytesPerOp != tc.b {
				t.Errorf("BytesPerOp = %d, want %d", e.BytesPerOp, tc.b)
			}
			if e.AllocsPerOp != tc.a {
				t.Errorf("AllocsPerOp = %d, want %d", e.AllocsPerOp, tc.a)
			}
			if e.Raw != tc.line {
				t.Errorf("Raw = %q, want the input line", e.Raw)
			}
		})
	}
}

func TestReadInput(t *testing.T) {
	blob := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: repro/internal/explore",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkDAGCount-8  \t      20\t   2540907 ns/op\t    117030 paths/op\t 1306264 B/op\t      42 allocs/op",
		"BenchmarkDAGWhatIf-8 \t      20\t    362941 ns/op\t 1145305 B/op\t      72 allocs/op",
		"PASS",
		"ok  \trepro/internal/explore\t0.069s",
	}, "\n")
	got := readInput(bufio.NewScanner(strings.NewReader(blob)))
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	count, ok := got["BenchmarkDAGCount"]
	if !ok {
		t.Fatal("BenchmarkDAGCount missing (GOMAXPROCS suffix not stripped?)")
	}
	if count.AllocsPerOp != 42 || count.BytesPerOp != 1306264 {
		t.Errorf("BenchmarkDAGCount = %+v, custom paths/op column corrupted the benchmem fields", count)
	}
	if whatIf := got["BenchmarkDAGWhatIf"]; whatIf.NsPerOp != 362941 {
		t.Errorf("BenchmarkDAGWhatIf NsPerOp = %v, want 362941", whatIf.NsPerOp)
	}
}

func TestGate(t *testing.T) {
	base := Entry{NsPerOp: 1000, BytesPerOp: 100_000, AllocsPerOp: 40}
	cases := []struct {
		name string
		got  Entry
		want int // problems reported
	}{
		{"equal", base, 0},
		{"within every bound", Entry{NsPerOp: 2900, BytesPerOp: 126_000, AllocsPerOp: 52}, 0},
		{"cheaper", Entry{NsPerOp: 500, BytesPerOp: 4_000, AllocsPerOp: 20}, 0},
		{"allocs grew", Entry{NsPerOp: 1000, BytesPerOp: 100_000, AllocsPerOp: 53}, 1},
		// Fewer allocations but far more bytes — the case only the B/op
		// gate catches.
		{"bytes grew", Entry{NsPerOp: 1000, BytesPerOp: 1_300_000, AllocsPerOp: 30}, 1},
		{"slower", Entry{NsPerOp: 3100, BytesPerOp: 100_000, AllocsPerOp: 40}, 1},
		{"everything grew", Entry{NsPerOp: 9000, BytesPerOp: 200_000, AllocsPerOp: 90}, 3},
	}
	for _, tc := range cases {
		if got := gate(base, tc.got, 3, 1.25); len(got) != tc.want {
			t.Errorf("%s: gate reported %q, want %d problem(s)", tc.name, got, tc.want)
		}
	}
	// Tiny baselines get absolute slack: 0 → 1 KiB is not a regression.
	if got := gate(Entry{}, Entry{BytesPerOp: 1024, AllocsPerOp: 2}, 3, 1.25); len(got) != 0 {
		t.Errorf("slack: gate reported %q", got)
	}
}
