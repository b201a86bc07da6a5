package transcript

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/degree"
	"repro/internal/term"
)

// synthDigest hashes GenerateRand's transcripts in the Write format
// together with the rng's next draw, so a golden pins both the output and
// how much randomness synthesis consumed.
func synthDigest(t *testing.T, cat *catalog.Catalog, goal degree.Goal, start, end term.Term, m, n int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	trs, err := GenerateRand(cat, goal, start, end, m, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, trs); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "\nnext %d\n", rng.Int63())
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// wideCatalog is a generated catalog whose first term offers more than 64
// electable courses, so candidate selections span several mask words.
func wideCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	p := datagen.Default()
	p.Courses, p.IntroFraction, p.Layers, p.OfferProb, p.Terms, p.Seed = 120, 0.8, 2, 1, 6, 5
	cat, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSynthesisGolden pins GenerateRand's output byte for byte (seeding
// contract: equal inputs give identical transcripts and leave the rng in
// the same state). The digests were recorded before candidate sampling
// was rewritten to reuse its buffers; any change to the draws, their
// order or the candidate order shows here.
func TestSynthesisGolden(t *testing.T) {
	bcat := brandeis.Catalog()
	major, err := brandeis.Major(bcat)
	if err != nil {
		t.Fatal(err)
	}
	jobGoal, err := degree.NewExpr(bcat, "COSI 21A and COSI 29A")
	if err != nil {
		t.Fatal(err)
	}
	f13 := term.TwoSeason.MustTerm(2013, term.Fall)
	f15 := term.TwoSeason.MustTerm(2015, term.Fall)
	six := brandeis.StartForSemesters(6)

	wcat := wideCatalog(t)
	wstart := term.TwoSeason.MustTerm(2011, term.Fall)
	if got := wcat.Options(bitset.New(wcat.Len()), wstart).Len(); got <= 64 {
		t.Fatalf("wide catalog offers %d courses in its first term, want > 64", got)
	}
	wideGoal, err := degree.NewCourseSet(wcat, wcat.ID(0), wcat.ID(1), wcat.ID(2), wcat.ID(3), wcat.ID(4))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		cat        *catalog.Catalog
		goal       degree.Goal
		start, end term.Term
		m, n       int
		seed       int64
		want       string
	}{
		{"section52", bcat, major, six, brandeis.EndTerm(), 3, 83, 2016, "e0e8be0ac854f930"},
		{"job/seed1", bcat, jobGoal, f13, f15, 3, 200, 1, "9e0f810039f0b976"},
		{"job/seed2", bcat, jobGoal, f13, f15, 3, 200, 424242, "32eefb51691cd2d1"},
		{"job/seed3", bcat, jobGoal, f13, f15, 3, 200, 1 << 29, "e3a6b4e7e96c1c13"},
		{"job/m1", bcat, jobGoal, f13, f15, 1, 200, 7, "4b68eb4bb81be08c"},
		{"job/m4", bcat, jobGoal, f13, f15, 4, 200, 7, "f630913ec18c4ad5"},
		{"section52/m4", bcat, major, six, brandeis.EndTerm(), 4, 40, 9, "6905d2f74c3b4740"},
		{"wide", wcat, wideGoal, wstart, wstart.Add(4), 2, 40, 11, "4ba668d658102872"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := synthDigest(t, c.cat, c.goal, c.start, c.end, c.m, c.n, c.seed); got != c.want {
				t.Errorf("digest = %s, want %s", got, c.want)
			}
		})
	}
}
