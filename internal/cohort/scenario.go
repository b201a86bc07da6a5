// Package cohort implements cohort-scale scenario simulation: the
// institutional form of the paper's what-if question. The interactive
// engines answer one student at a time; here a Scenario describes a
// catalog delta ("course X is cancelled next term", "a new offering was
// added", or Monte-Carlo-sampled future schedules) and a Runner replans
// every member of a Cohort — parsed transcripts or synthesised student
// bodies — against it, one sub-exploration per member, emitting a
// per-student record stream plus an aggregate summary (affected count,
// delay distribution, stranded members).
//
// The package is transport-agnostic: the Runner drives a Planner
// interface, and SharedPlanner implements it, counting every member on
// one shared counter per catalog variant. Run alone (the CLI), it
// executes units directly on façade navigators; internal/server sets its
// hooks so each unit also passes the serving stack's unit-of-work layer
// (result cache, coalescing, cost-aware admission).
package cohort

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sched"
	"repro/internal/term"
)

// Change names one course and a set of term labels, the grain of a
// scenario's catalog delta.
type Change struct {
	Course string `json:"course"`
	// Terms lists affected semesters ("Fall 2014"). For cancellations an
	// empty list means every offering; additions must list terms.
	Terms []string `json:"terms,omitempty"`
}

// Scenario is a catalog delta to replan a cohort against: offerings
// removed (Cancel) and added (Add), plus optional Monte-Carlo schedule
// sampling for reliability estimation. The zero Scenario is the
// unchanged catalog.
type Scenario struct {
	// Cancel removes offerings: the named course's listed terms, or every
	// offering when Terms is empty (the "course cancelled" question).
	Cancel []Change `json:"cancel,omitempty"`
	// Add inserts offerings (a schedule change in the course's favour).
	Add []Change `json:"add,omitempty"`
	// Samples, when positive, additionally replans each member against
	// this many sampled future schedules (sched.SampleOfferings over a
	// synthetic history) and reports the fraction under which the member
	// still reaches the goal — the reliability of their position.
	Samples int `json:"samples,omitempty"`
	// Seed drives all sampling randomness; equal scenarios sample equal
	// schedules.
	Seed int64 `json:"seed,omitempty"`
	// HistoryYears sizes the synthetic offering history behind the
	// samples (default 3).
	HistoryYears int `json:"historyYears,omitempty"`
	// ReleasedThrough is the last term whose published schedule is
	// certain when sampling; offerings beyond it are drawn from history
	// frequencies. Empty defaults to the catalog's first scheduled term.
	ReleasedThrough string `json:"releasedThrough,omitempty"`
}

// DefaultHistoryYears is the synthetic-history depth behind Monte-Carlo
// samples when the scenario does not set one.
const DefaultHistoryYears = 3

// Empty reports whether the scenario leaves the catalog unchanged
// (sampling aside): an empty scenario's units can share cache entries
// with ordinary interactive traffic.
func (sc *Scenario) Empty() bool {
	return len(sc.Cancel) == 0 && len(sc.Add) == 0
}

// Canonicalize rewrites the scenario into the form Digest hashes:
// course IDs resolved through resolve (the catalog's canonical
// spelling), term labels trimmed, change lists sorted by course and
// their term lists sorted and deduplicated. Two scenarios that
// canonicalize equally apply equally, so a digest never aliases two
// different deltas.
func (sc *Scenario) Canonicalize(resolve func(string) (string, bool)) {
	canonChanges := func(chs []Change) {
		for i := range chs {
			id := strings.TrimSpace(chs[i].Course)
			if c, ok := resolve(id); ok {
				id = c
			}
			chs[i].Course = id
			for j, t := range chs[i].Terms {
				chs[i].Terms[j] = strings.TrimSpace(t)
			}
			sort.Strings(chs[i].Terms)
			chs[i].Terms = dedupe(chs[i].Terms)
		}
		sort.SliceStable(chs, func(a, b int) bool { return chs[a].Course < chs[b].Course })
	}
	canonChanges(sc.Cancel)
	canonChanges(sc.Add)
	sc.ReleasedThrough = strings.TrimSpace(sc.ReleasedThrough)
}

func dedupe(ss []string) []string {
	if len(ss) < 2 {
		return ss
	}
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// Digest returns a stable hex digest of the catalog delta (Cancel/Add
// only — sampling parameters are keyed separately per sample). Cache
// keys for scenario-variant units fold it into the endpoint string, so
// units against different deltas can never alias while units against
// the same delta coalesce. Canonicalize first for spelling-insensitive
// digests.
func (sc *Scenario) Digest() string {
	blob, err := json.Marshal(struct {
		Cancel []Change `json:"cancel"`
		Add    []Change `json:"add"`
	}{sc.Cancel, sc.Add})
	if err != nil {
		// Change is plain strings; Marshal cannot fail. Guard anyway.
		return "unhashable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// SampleKey is the per-sample endpoint discriminator: it extends the
// delta digest with the sampling parameters and the sample index, so
// each sampled schedule gets its own cache-key space while identical
// (scenario, seed, index) units across members and jobs coalesce.
func (sc *Scenario) SampleKey(i int) string {
	years := sc.HistoryYears
	if years <= 0 {
		years = DefaultHistoryYears
	}
	return fmt.Sprintf("%s|mc:%d:%d:%s:%d", sc.Digest(), sc.Seed, years, sc.ReleasedThrough, i)
}

// Apply builds the scenario catalog: cat with the cancelled offerings
// removed and the added ones inserted. Unknown courses, unparseable
// terms, cancelling a term the course is not offered in, and adding one
// it already is are errors — a silently absorbed typo would simulate a
// different scenario than the operator asked about. An Empty scenario
// returns cat itself.
func (sc *Scenario) Apply(cat *catalog.Catalog) (*catalog.Catalog, error) {
	if sc.Empty() {
		return cat, nil
	}
	type delta struct {
		cancelAll bool
		cancel    map[int]bool // term ordinals
		add       []term.Term
	}
	deltas := map[int]*delta{}
	deltaFor := func(id string) (*delta, error) {
		ci, ok := cat.Index(id)
		if !ok {
			return nil, fmt.Errorf("cohort: scenario names unknown course %q", id)
		}
		d := deltas[ci]
		if d == nil {
			d = &delta{cancel: map[int]bool{}}
			deltas[ci] = d
		}
		return d, nil
	}
	for _, ch := range sc.Cancel {
		d, err := deltaFor(ch.Course)
		if err != nil {
			return nil, err
		}
		if len(ch.Terms) == 0 {
			d.cancelAll = true
			continue
		}
		ci, _ := cat.Index(ch.Course)
		for _, label := range ch.Terms {
			t, err := term.Parse(cat.Calendar(), label)
			if err != nil {
				return nil, fmt.Errorf("cohort: scenario cancel %s: %v", ch.Course, err)
			}
			if !cat.OfferedIn(t).Contains(ci) {
				return nil, fmt.Errorf("cohort: scenario cancels %s in %s, but it is not offered then", ch.Course, t.Label())
			}
			d.cancel[t.Ordinal()] = true
		}
	}
	for _, ch := range sc.Add {
		d, err := deltaFor(ch.Course)
		if err != nil {
			return nil, err
		}
		if len(ch.Terms) == 0 {
			return nil, fmt.Errorf("cohort: scenario add %s lists no terms", ch.Course)
		}
		ci, _ := cat.Index(ch.Course)
		for _, label := range ch.Terms {
			t, err := term.Parse(cat.Calendar(), label)
			if err != nil {
				return nil, fmt.Errorf("cohort: scenario add %s: %v", ch.Course, err)
			}
			if cat.OfferedIn(t).Contains(ci) {
				return nil, fmt.Errorf("cohort: scenario adds %s in %s, but it is already offered then", ch.Course, t.Label())
			}
			if d.cancel[t.Ordinal()] || d.cancelAll {
				return nil, fmt.Errorf("cohort: scenario both cancels and adds %s in %s", ch.Course, t.Label())
			}
			d.add = append(d.add, t)
		}
	}
	b := catalog.NewBuilder(cat.Calendar())
	for i := 0; i < cat.Len(); i++ {
		course := cat.Course(i)
		if d := deltas[i]; d != nil {
			var offered []term.Term
			if !d.cancelAll {
				for _, t := range course.Offered {
					if !d.cancel[t.Ordinal()] {
						offered = append(offered, t)
					}
				}
			}
			offered = append(offered, d.add...)
			sort.Slice(offered, func(a, b int) bool { return offered[a].Before(offered[b]) })
			course.Offered = offered
		}
		b.Add(course)
	}
	return b.Build()
}

// SampleSchedules draws the scenario's Monte-Carlo schedule catalogs
// from cat (which should already be the scenario catalog, so deltas
// compose with sampling): a synthetic history is generated from the
// catalog's published pattern under Seed, then Samples schedules are
// drawn with one shared rng — the whole sequence is reproducible from
// the scenario alone. Returns nil when Samples is zero.
func (sc *Scenario) SampleSchedules(cat *catalog.Catalog) ([]*catalog.Catalog, error) {
	if sc.Samples <= 0 {
		return nil, nil
	}
	years := sc.HistoryYears
	if years <= 0 {
		years = DefaultHistoryYears
	}
	released := cat.FirstTerm()
	if sc.ReleasedThrough != "" {
		var err error
		released, err = term.Parse(cat.Calendar(), sc.ReleasedThrough)
		if err != nil {
			return nil, fmt.Errorf("cohort: scenario releasedThrough: %v", err)
		}
	}
	if released.IsZero() {
		return nil, fmt.Errorf("cohort: catalog has no schedule to sample")
	}
	hist, err := sched.GenerateHistory(cat, years, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("cohort: sampling history: %v", err)
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	out := make([]*catalog.Catalog, sc.Samples)
	for i := range out {
		out[i], err = sched.SampleOfferings(cat, hist, released, rng)
		if err != nil {
			return nil, fmt.Errorf("cohort: sampling schedule %d: %v", i, err)
		}
	}
	return out, nil
}
