package cohort

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/term"
	"repro/internal/transcript"
)

// Member is one student to replan: their completed courses and the
// semester their remaining plan starts in. Members are positions, not
// histories — how the completed set was earned does not affect
// replanning, so two members with equal (completed, start) are the same
// unit of work and coalesce in the result cache.
type Member struct {
	Student string `json:"student"`
	// Completed lists completed course IDs (set semantics).
	Completed []string `json:"completed,omitempty"`
	// Start is the first semester of the remaining plan, e.g. "Fall 2014".
	Start string `json:"start"`
}

// FromTranscripts derives cohort members from transcripts: each is
// replayed against the catalog (validating every election the way
// Algorithm 1 would) and becomes a member whose completed set is the
// replay result and whose start is the semester after the last recorded
// entry. maxPerTerm bounds elections per recorded semester (0 = no
// bound).
func FromTranscripts(cat *catalog.Catalog, trs []transcript.Transcript, maxPerTerm int) ([]Member, error) {
	out := make([]Member, 0, len(trs))
	for _, tr := range trs {
		x, err := transcript.Replay(cat, tr, maxPerTerm)
		if err != nil {
			return nil, fmt.Errorf("cohort: %v", err)
		}
		last := tr.Entries[len(tr.Entries)-1].Term
		completed := cat.IDs(x)
		sort.Strings(completed)
		out = append(out, Member{
			Student:   tr.Student,
			Completed: completed,
			Start:     last.Next().Label(),
		})
	}
	return out, nil
}

// Synthesize generates n mid-degree members: goal-reaching transcripts
// over [start, end] (transcript.GenerateRand) truncated at a random
// semester, so the cohort spans freshmen through near-graduates — the
// population a cancelled course hits unevenly. All randomness flows
// from rng (see the transcript seeding contract): an equal-state rng
// yields an identical cohort. maxPerTerm ≤ 0 leaves elections per
// semester unbounded. A goal that already holds with nothing completed
// is an error: every walk would be empty, leaving no semester to start
// a member's remaining plan from.
func Synthesize(cat *catalog.Catalog, goal degree.Goal, start, end term.Term, maxPerTerm, n int, rng *rand.Rand) ([]Member, error) {
	if goal.Satisfied(bitset.New(cat.Len())) {
		return nil, fmt.Errorf("cohort: goal %q holds before any course is taken, so synthesized members would have no history", goal)
	}
	trs, err := transcript.GenerateRand(cat, goal, start, end, maxPerTerm, n, rng)
	if err != nil {
		return nil, fmt.Errorf("cohort: %v", err)
	}
	out := make([]Member, len(trs))
	for i, tr := range trs {
		// Keep a proper prefix: k semesters of history, the (k+1)th is
		// where the remaining plan starts. k = 0 is an incoming student.
		k := rng.Intn(len(tr.Entries))
		x := bitset.New(cat.Len())
		for _, e := range tr.Entries[:k] {
			for _, id := range e.Courses {
				ci, ok := cat.Index(id)
				if !ok {
					return nil, fmt.Errorf("cohort: generated transcript names unknown course %q", id)
				}
				x.Add(ci)
			}
		}
		completed := cat.IDs(x)
		sort.Strings(completed)
		out[i] = Member{
			Student:   tr.Student,
			Completed: completed,
			Start:     tr.Entries[k].Term.Label(),
		}
	}
	return out, nil
}
