package registrar

import (
	"reflect"
	"strings"
	"testing"
)

// asciiOnly clears the high bit of every byte, so fuzzed input reaches
// the byte scanners (which only ever see ASCII) instead of the regexp
// fallback.
func asciiOnly(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] &= 0x7f
	}
	return string(b)
}

// FuzzScannersMatchRegexps is the differential contract of the byte
// scanners: on any ASCII text, prereqIntroAt ends where the reference
// prereqIntro match ends, appendCourseRefs finds the reference
// courseRef's matches with all their groups, and offeringKindAt returns
// the reference offeringPhrase's normalised kind.
func FuzzScannersMatchRegexps(f *testing.F) {
	for _, seed := range []string{
		"Prerequisite: COSI 11a.",
		"Prerequisites : cosi 21a or cosi 12b; prerequisitesx PREREQUISITE:\t\n",
		"prerequisite0 _prerequisite prerequisites_: Xprerequisite prerequisiteS:  ",
		"cosi 11 ab cosi 11 22 cosi11a cosi 11a_ cosi 1234 cosiabc 11 ab 1 a",
		"math 8 a, cs 11  b and x 1 or ab12c or ab 12 c_ or and 11 ",
		"ab 1\ncd 2\fef 3\rgh 4\v",
		"Usually offered every second  year.",
		"offered everyyear; offered  every spring; Offered every\tSemesters",
		"usually offered every second\tyearly, offered every fallow",
		"offered every secondyear offered every second year",
	} {
		f.Add(seed)
	}
	for _, seed := range courseIDSeeds {
		f.Add(seed)
	}
	for _, name := range []string{"catalog.txt", "schedule.txt"} {
		for _, line := range strings.Split(corpusSeed(f, name), "\n") {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		s = asciiOnly(s)
		end, ok := prereqIntroAt(s)
		if loc := refPrereqIntro.FindStringIndex(s); ok != (loc != nil) || ok && end != loc[1] {
			t.Fatalf("prereqIntroAt(%q) = %d,%v, reference %v", s, end, ok, loc)
		}
		var got [][]int
		for _, m := range appendCourseRefs(nil, s) {
			got = append(got, []int{m.start, m.end, m.start, m.deptEnd, m.num, m.numEnd, m.letter, m.end})
		}
		if want := refCourseRef.FindAllStringSubmatchIndex(s, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("appendCourseRefs(%q) = %v, reference %v", s, got, want)
		}
		kind, ok := offeringKindAt(s)
		m := refOfferingPhrase.FindStringSubmatch(s)
		if ok != (m != nil) || ok && kind != strings.Join(strings.Fields(strings.ToLower(m[1])), " ") {
			t.Fatalf("offeringKindAt(%q) = %q,%v, reference %q", s, kind, ok, m)
		}
	})
}
