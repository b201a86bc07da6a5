package registrar

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/term"
)

// goldenDigests pins the full output of the dump parsers — specs,
// schedule records, diagnostics and error text — on fixed inputs. The
// digests were recorded before the parsers gained their fast paths, so a
// mismatch is an observable change in ingestion, not a refactor. On a
// mismatch the test logs the rendered output to diff against the
// previous version's.
var goldenDigests = map[string]string{
	"corrupt/catalog/strict":    "5930a03dc96070a8382f11cd7f19b7d34f8a1aeb62314756a627878505018474",
	"corrupt/catalog/lenient":   "3b468cfdc73e5415eb2dbdec3dc09ae4095454a3671b6b7d4360c108c75c11e8",
	"corrupt/schedule/strict":   "0a37c8c9be59fdd7450141b6fb1f041237f9039444b3a0c37be9413402b1d2b5",
	"corrupt/schedule/lenient":  "061580a55e38b5cf165d3eea15e113a40a41f5c47f96a0f1561b414ea0cebfda",
	"embedded/catalog/strict":   "1b43c855015c73b2c9c2e74ac0c2a478ef3ed256a70f27014c3fadd9ca4873a1",
	"embedded/catalog/lenient":  "1b43c855015c73b2c9c2e74ac0c2a478ef3ed256a70f27014c3fadd9ca4873a1",
	"embedded/schedule/strict":  "42a25b918a9c5b5a0dd2941e9bf459b980af73a531b640bfe8c7763281c07b27",
	"embedded/schedule/lenient": "42a25b918a9c5b5a0dd2941e9bf459b980af73a531b640bfe8c7763281c07b27",
	"prose/catalog/strict":      "0fcdcbff044205bae557190996e5c583451f042d59bf8a6ceb13b554a8aae294",
	"prose/catalog/lenient":     "0fcdcbff044205bae557190996e5c583451f042d59bf8a6ceb13b554a8aae294",
	"prose/schedule/strict":     "42a25b918a9c5b5a0dd2941e9bf459b980af73a531b640bfe8c7763281c07b27",
	"prose/schedule/lenient":    "42a25b918a9c5b5a0dd2941e9bf459b980af73a531b640bfe8c7763281c07b27",
}

// embeddedDump renders the embedded catalog as registrar text. Plain
// style matches the end-to-end benchmark's reload source: uppercase
// quoted references and one "COURSE | TERM" record per offering. Prose
// style writes what registrars publish instead: lowercase unquoted
// references, advisory noise and "usually offered" phrases.
func embeddedDump(prose bool) (catalogDump, schedule string) {
	phrases := []string{"semester", "fall", "spring", "year", "second year"}
	var cat, sched strings.Builder
	for i, c := range brandeis.Catalog().Specs() {
		fmt.Fprintf(&cat, "course: %s\ntitle: %s\ndescription: %s.", c.ID, c.Title, c.Title)
		switch {
		case c.Prereq != "" && prose:
			fmt.Fprintf(&cat, " Prerequisites: %s, or permission of the instructor.",
				strings.ToLower(strings.ReplaceAll(c.Prereq, `"`, "")))
		case c.Prereq != "":
			fmt.Fprintf(&cat, " Prerequisite: %s.", c.Prereq)
		}
		if prose {
			fmt.Fprintf(&cat, "\n  Usually offered every %s.", phrases[i%len(phrases)])
		}
		fmt.Fprintf(&cat, "\nworkload: %s\n\n", strconv.FormatFloat(c.Workload, 'g', -1, 64))
		for _, t := range c.Offered {
			id := c.ID
			if prose {
				id = strings.ToLower(id)
			}
			fmt.Fprintf(&sched, "%s | %s\n", id, t)
		}
	}
	return cat.String(), sched.String()
}

func renderSpecs(specs []catalog.CourseSpec, diags []Diagnostic, err error) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	_ = enc.Encode(specs)
	_ = enc.Encode(diags)
	fmt.Fprintf(&b, "err: %v\n", err)
	return b.Bytes()
}

func renderRecords(recs map[string][]term.Term, diags []Diagnostic, err error) []byte {
	var b bytes.Buffer
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s:", id)
		for _, t := range recs[id] {
			fmt.Fprintf(&b, " %s/%s/%d", t.Label(), t, t.Ordinal())
		}
		b.WriteByte('\n')
	}
	_ = json.NewEncoder(&b).Encode(diags)
	fmt.Fprintf(&b, "err: %v\n", err)
	return b.Bytes()
}

func TestParserGoldens(t *testing.T) {
	first, last := brandeis.FirstTerm(), brandeis.EndTerm()
	read := func(name string) string {
		b, err := os.ReadFile("testdata/corrupt/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	catalogs := map[string]string{"corrupt": read("catalog.txt")}
	schedules := map[string]string{"corrupt": read("schedule.txt")}
	catalogs["embedded"], schedules["embedded"] = embeddedDump(false)
	catalogs["prose"], schedules["prose"] = embeddedDump(true)

	got := map[string][]byte{}
	for name, in := range catalogs {
		specs, err := ParseCatalogDump(strings.NewReader(in), first, last)
		got[name+"/catalog/strict"] = renderSpecs(specs, nil, err)
		specs, diags, err := ParseCatalogDumpLenient(strings.NewReader(in), first, last)
		got[name+"/catalog/lenient"] = renderSpecs(specs, diags, err)
	}
	for name, in := range schedules {
		recs, err := ParseScheduleRecords(strings.NewReader(in), term.TwoSeason)
		got[name+"/schedule/strict"] = renderRecords(recs, nil, err)
		recs, diags, err := ParseScheduleRecordsLenient(strings.NewReader(in), term.TwoSeason)
		got[name+"/schedule/lenient"] = renderRecords(recs, diags, err)
	}
	for name, out := range got {
		sum := sha256.Sum256(out)
		digest := hex.EncodeToString(sum[:])
		if want, ok := goldenDigests[name]; !ok || digest != want {
			t.Errorf("%s: digest %s, want %q; output:\n%s", name, digest, want, out)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("rendered %d outputs, golden table has %d", len(got), len(goldenDigests))
	}
}
