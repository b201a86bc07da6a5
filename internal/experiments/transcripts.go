package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/brandeis"
	"repro/internal/explore"
	"repro/internal/transcript"
)

// TranscriptResult reports the §5.2 comparison with existing learning
// paths: every actual (synthesised) student path must be contained in the
// goal-driven algorithm's output for the Fall '12 → Fall '15 period.
type TranscriptResult struct {
	// Transcripts is the number of student paths checked (paper: 83).
	Transcripts int
	// Contained counts transcripts that replay as valid goal-reaching
	// paths — membership in the exhaustive goal-driven path set.
	Contained int
	// GeneratedPaths is the goal-driven path count for the same period
	// (paper: 41,556,657), counted on the interned-status DAG.
	GeneratedPaths int64
	// GoalPaths is the subset of GeneratedPaths ending at the goal.
	GoalPaths int64
	// Runtime covers transcript generation plus validation.
	Runtime time.Duration
}

// RunTranscripts runs the comparison with n synthesised transcripts over
// the paper's 6-semester period. countPaths skips the (seconds-long)
// generated-path count when false.
func RunTranscripts(env *Env, n int, seed int64, countPaths bool) (TranscriptResult, error) {
	began := time.Now()
	const d = 6 // Fall '12 → Fall '15
	start := brandeis.StartForSemesters(d)
	end := brandeis.EndTerm()
	trs, err := transcript.Generate(env.Cat, env.Major, start, end, brandeis.MaxPerTerm, n, seed)
	if err != nil {
		return TranscriptResult{}, err
	}
	res := TranscriptResult{Transcripts: len(trs)}
	for _, tr := range trs {
		x, err := transcript.Replay(env.Cat, tr, brandeis.MaxPerTerm)
		if err != nil {
			continue // not contained: violates a generation rule
		}
		if env.Major.Satisfied(x) {
			res.Contained++
		}
	}
	if countPaths {
		opt := env.opt()
		opt.Substrate = explore.SubstrateDAG
		gres, err := explore.GoalCount(env.Cat, env.start(d), end, env.Major, env.pruners(), opt)
		if err != nil {
			return res, err
		}
		res.GeneratedPaths = gres.Paths
		res.GoalPaths = gres.GoalPaths
	}
	res.Runtime = time.Since(began)
	return res, nil
}

// PrintTranscripts renders the §5.2 result.
func PrintTranscripts(w io.Writer, r TranscriptResult) {
	fmt.Fprintln(w, "§5.2 Comparison with existing learning paths (Fall '12 → Fall '15)")
	fmt.Fprintf(w, "actual paths checked:              %d\n", r.Transcripts)
	fmt.Fprintf(w, "contained in generated paths:      %d (%.0f%%)\n",
		r.Contained, 100*float64(r.Contained)/float64(max(1, r.Transcripts)))
	if r.GeneratedPaths > 0 {
		fmt.Fprintf(w, "goal-driven paths for the period:  %d (%d reaching the major)\n",
			r.GeneratedPaths, r.GoalPaths)
	}
	fmt.Fprintf(w, "runtime:                           %s\n", fmtDur(r.Runtime))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
