// Package transcript models anonymised student transcripts and the §5.2
// "comparison with existing learning paths" experiment.
//
// The paper obtained 83 anonymous transcripts of Brandeis CS majors
// (Fall '12 – Fall '15) and verified that every actual path appears among
// the goal-driven algorithm's generated paths. The real transcripts are
// not public, so Generate synthesises feasible goal-reaching walks with
// the same role (DESIGN.md §4): the experiment's check — actual ⊆
// generated — is replayed by Replay (rule-level validation, equivalent to
// membership in the exhaustively generated path set because the generator
// emits every feasible path) and, for small instances, by FollowsGraph
// (literal edge-walk containment in a materialised learning graph).
package transcript

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

// Entry is one semester of a transcript: the courses elected that term.
type Entry struct {
	Term    term.Term
	Courses []string
}

// Transcript is an anonymised per-student course history, ordered by term
// with no gaps (a semester off is an Entry with no courses).
type Transcript struct {
	Student string
	Entries []Entry
}

// Start returns the first semester, or a zero Term for empty transcripts.
func (tr Transcript) Start() term.Term {
	if len(tr.Entries) == 0 {
		return term.Term{}
	}
	return tr.Entries[0].Term
}

// Courses returns all course IDs in the transcript, in election order.
func (tr Transcript) Courses() []string {
	var out []string
	for _, e := range tr.Entries {
		out = append(out, e.Courses...)
	}
	return out
}

// Replay validates the transcript against the catalog's rules, exactly the
// constraints Algorithm 1 enforces per transition: entries in consecutive
// terms, each elected course offered that term, not already completed, its
// prerequisites satisfied by prior completions, and at most maxPerTerm
// elections per term. It returns the final completed set.
func Replay(cat *catalog.Catalog, tr Transcript, maxPerTerm int) (bitset.Set, error) {
	x := bitset.New(cat.Len())
	if len(tr.Entries) == 0 {
		return x, fmt.Errorf("transcript %s: empty", tr.Student)
	}
	prev := term.Term{}
	for i, e := range tr.Entries {
		if e.Term.IsZero() || e.Term.Calendar() != cat.Calendar() {
			return x, fmt.Errorf("transcript %s: entry %d has invalid term", tr.Student, i)
		}
		if i > 0 && e.Term.Sub(prev) != 1 {
			return x, fmt.Errorf("transcript %s: gap between %v and %v (semesters off must be explicit empty entries)", tr.Student, prev, e.Term)
		}
		prev = e.Term
		if maxPerTerm > 0 && len(e.Courses) > maxPerTerm {
			return x, fmt.Errorf("transcript %s: %d courses in %v exceeds limit %d", tr.Student, len(e.Courses), e.Term, maxPerTerm)
		}
		options := cat.Options(x, e.Term)
		taken := bitset.New(cat.Len())
		for _, id := range e.Courses {
			ci, ok := cat.Index(id)
			if !ok {
				return x, fmt.Errorf("transcript %s: unknown course %q", tr.Student, id)
			}
			if taken.Contains(ci) {
				return x, fmt.Errorf("transcript %s: %q elected twice in %v", tr.Student, id, e.Term)
			}
			if !options.Contains(ci) {
				return x, fmt.Errorf("transcript %s: %q not electable in %v (offered and prerequisites satisfied?)", tr.Student, id, e.Term)
			}
			taken.Add(ci)
		}
		x.UnionInPlace(taken)
	}
	return x, nil
}

// FollowsGraph reports whether the transcript is literally one of the
// paths of a materialised learning graph: a root-to-node walk whose edge
// selections match the transcript's entries semester by semester. The
// walk may end at any node (generated paths may extend past the goal).
func FollowsGraph(cat *catalog.Catalog, g *graph.Graph, tr Transcript) bool {
	cur := g.Root()
	if len(tr.Entries) == 0 || !g.Node(cur).Status.Term.Equal(tr.Entries[0].Term) {
		return false
	}
	for _, e := range tr.Entries {
		want, err := cat.SetOf(e.Courses...)
		if err != nil {
			return false
		}
		next := graph.NodeID(-1)
		for _, eid := range g.Node(cur).Out {
			edge := g.Edge(eid)
			if edge.Selection.Equal(want) {
				next = edge.To
				break
			}
		}
		if next < 0 {
			return false
		}
		cur = next
	}
	return true
}

// Generate synthesises n transcripts of students who reach the goal by the
// end semester: random feasible walks (uniform among electable selections,
// biased toward goal-relevant courses) with backtracking. Walks stop at
// the first goal-satisfying status, like the goal-driven algorithm's end
// nodes. It fails if a goal-reaching walk cannot be found (unsatisfiable
// configuration).
//
// Seeding contract: all randomness flows from the explicit seed — equal
// (catalog, goal, window, maxPerTerm, n, seed) inputs produce byte-
// identical transcripts on every run and platform. Generate never touches
// the package-level math/rand state. Callers composing several generation
// steps into one reproducible pipeline (e.g. cohort synthesis) should use
// GenerateRand and thread a single *rand.Rand through every step.
func Generate(cat *catalog.Catalog, goal degree.Goal, start, end term.Term, maxPerTerm, n int, seed int64) ([]Transcript, error) {
	return GenerateRand(cat, goal, start, end, maxPerTerm, n, rand.New(rand.NewSource(seed)))
}

// GenerateRand is Generate drawing from a caller-owned random source: the
// generator consumes rng in a fixed order, so an equal-state rng yields
// identical transcripts, and sequential calls sharing one rng form a
// single deterministic stream (the second call continues where the first
// stopped). rng must not be shared concurrently. maxPerTerm ≤ 0 leaves
// the per-semester election count unbounded, as in Replay.
func GenerateRand(cat *catalog.Catalog, goal degree.Goal, start, end term.Term, maxPerTerm, n int, rng *rand.Rand) ([]Transcript, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transcript: n must be positive")
	}
	if rng == nil {
		return nil, fmt.Errorf("transcript: nil rng")
	}
	w := &walker{
		cat:      cat,
		goal:     goal,
		relevant: goal.Relevant(),
		end:      end,
		m:        maxPerTerm,
		pruners:  explore.PaperPruners(cat, goal, maxPerTerm),
		rng:      rng,
		sel:      bitset.New(cat.Len()),
		levels:   make([]level, max(end.Sub(start), 0)),
	}
	out := make([]Transcript, 0, n)
	for i := 0; i < n; i++ {
		w.entries = w.entries[:0]
		if !w.walk(status.New(cat, start, bitset.New(cat.Len()))) {
			return nil, fmt.Errorf("transcript: no goal-reaching walk from %v to %v", start, end)
		}
		entries := make([]Entry, len(w.entries))
		copy(entries, w.entries)
		out = append(out, Transcript{Student: fmt.Sprintf("S%03d", i+1), Entries: entries})
	}
	return out, nil
}

// candidateTries is how many random selections walk samples per status.
const candidateTries = 48

// walker carries one GenerateRand call's inputs and the buffers its walks
// reuse; walks run one after another, so one walker serves them all.
type walker struct {
	cat      *catalog.Catalog
	goal     degree.Goal
	relevant bitset.Set
	end      term.Term
	m        int
	pruners  []explore.Pruner
	rng      *rand.Rand

	entries []Entry    // the walk so far; entries[d] was elected at depth d
	perm    []int      // one try's permutation of option positions
	rel     []bool     // rel[p]: option position p is goal-relevant
	mask    []uint64   // one try's selection, as a mask over option positions
	sel     bitset.Set // the descended candidate's selection, as courses
	levels  []level    // per-depth state that must survive the descent
}

// level is one walk depth's option list and distinct candidate masks
// (mask-word stride, in first-drawn order).
type level struct {
	options []int
	cands   []uint64
}

// walk extends w.entries with a goal-reaching suffix from st; it returns
// false when none exists below this node (triggering backtracking above).
// The goal-driven pruning strategies (admissible, so they never cut a
// goal-reaching walk) keep the backtracking tractable in tight windows.
func (w *walker) walk(st status.Status) bool {
	if w.goal.Satisfied(st.Completed) {
		return true
	}
	if !st.Term.Before(w.end) {
		return false
	}
	minTake := 0
	for _, p := range w.pruners {
		prune, mt := p.Check(st, w.end)
		if prune {
			return false
		}
		if mt > minTake {
			minTake = mt
		}
	}
	depth := len(w.entries)
	lv := &w.levels[depth]
	lv.options = lv.options[:0]
	st.Options.ForEach(func(ci int) { lv.options = append(lv.options, ci) })
	n := len(lv.options)
	if n == 0 {
		return w.descend(st, nil) // semester off
	}
	// Candidate selections: subsets of the option set sized within
	// [max(minTake,1), m], shuffled, goal-relevant-heavy first. Enumerating
	// all subsets would be exponential; sampling a bounded number of random
	// subsets suffices because backtracking covers failures.
	maxSize := n
	if w.m > 0 && w.m < n {
		maxSize = w.m
	}
	loSize := max(1, minTake)
	if loSize > maxSize {
		return false // cannot take enough courses this semester
	}
	w.sample(lv, loSize, maxSize)
	words := (n + 63) / 64
	for c := 0; c < len(lv.cands); c += words {
		if w.descend(st, lv.cands[c:c+words]) {
			return true
		}
	}
	return false
}

// sample fills lv.cands with the distinct candidates of candidateTries
// random tries. The draws are part of the seeding contract: each try
// draws rng.Intn for the size, then the n draws of rng.Intn(i+1) that
// rng.Perm(n) makes, here into a reused buffer. Moving goal-relevant
// positions to the front (a stable partition) and cutting to size makes
// most samples progress toward the goal.
func (w *walker) sample(lv *level, loSize, maxSize int) {
	n := len(lv.options)
	words := (n + 63) / 64
	if cap(w.perm) < n {
		w.perm, w.rel = make([]int, n), make([]bool, n)
	}
	perm, rel := w.perm[:n], w.rel[:n]
	for p, ci := range lv.options {
		rel[p] = w.relevant.Contains(ci)
	}
	if cap(w.mask) < words {
		w.mask = make([]uint64, words)
	}
	w.mask = w.mask[:words]
	lv.cands = lv.cands[:0]
	for try := 0; try < candidateTries; try++ {
		size := loSize + w.rng.Intn(maxSize-loSize+1)
		for i := 0; i < n; i++ {
			j := w.rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		clear(w.mask)
		k := 0
		for _, want := range [2]bool{true, false} {
			for _, p := range perm {
				if k == size {
					break
				}
				if rel[p] == want {
					w.mask[p/64] |= 1 << (p % 64)
					k++
				}
			}
		}
		if !hasMask(lv.cands, w.mask) {
			lv.cands = append(lv.cands, w.mask...)
		}
	}
}

// hasMask reports whether cands (stride len(mask)) already holds mask.
func hasMask(cands, mask []uint64) bool {
	for c := 0; c < len(cands); c += len(mask) {
		if slices.Equal(cands[c:c+len(mask)], mask) {
			return true
		}
	}
	return false
}

// descend elects the courses at the mask's option positions (none for a
// semester off), records the entry and walks on from the next semester,
// undoing the entry when no goal-reaching suffix exists.
func (w *walker) descend(st status.Status, mask []uint64) bool {
	options := w.levels[len(w.entries)].options
	k := 0
	for _, word := range mask {
		k += bits.OnesCount64(word)
	}
	courses := make([]string, 0, k)
	w.sel.Clear()
	for wi, word := range mask {
		for ; word != 0; word &= word - 1 {
			ci := options[wi*64+bits.TrailingZeros64(word)]
			w.sel.Add(ci)
			courses = append(courses, w.cat.ID(ci))
		}
	}
	w.entries = append(w.entries, Entry{Term: st.Term, Courses: courses})
	if w.walk(st.Advance(w.cat, w.sel)) {
		return true
	}
	w.entries = w.entries[:len(w.entries)-1]
	return false
}

// Write serialises transcripts in the dump format Parse reads:
//
//	student: S001
//	Fall 2012: COSI 11A, COSI 29A
//	Spring 2013:
//	...
func Write(w io.Writer, trs []Transcript) error {
	for i, tr := range trs {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "student: %s\n", tr.Student); err != nil {
			return err
		}
		for _, e := range tr.Entries {
			if _, err := fmt.Fprintf(w, "%s: %s\n", e.Term.Label(), strings.Join(e.Courses, ", ")); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parse reads the Write format. Blank lines separate students; '#' lines
// are comments.
func Parse(r io.Reader, cal *term.Calendar) ([]Transcript, error) {
	var out []Transcript
	var cur *Transcript
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			flush()
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("transcript: line %d: want \"key: value\", got %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if strings.EqualFold(key, "student") {
			flush()
			cur = &Transcript{Student: val}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("transcript: line %d: entry before student:", lineNo)
		}
		tm, err := term.Parse(cal, key)
		if err != nil {
			return nil, fmt.Errorf("transcript: line %d: %v", lineNo, err)
		}
		var courses []string
		if val != "" {
			for _, c := range strings.Split(val, ",") {
				courses = append(courses, strings.TrimSpace(c))
			}
		}
		cur.Entries = append(cur.Entries, Entry{Term: tm, Courses: courses})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("transcript: %v", err)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("transcript: empty input")
	}
	return out, nil
}
