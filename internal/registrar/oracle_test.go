package registrar

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/term"
)

// Reference oracles: the Prerequisite and Schedule parsers' reference
// handling as written before their fast paths — every description
// scanned by the regexps, every reference re-matched on its own and
// normalised by a third match. The differential fuzzers below hold the
// production parsers to these bodies: the same value, the same ok flag
// and the same error.

var (
	refCourseRef           = regexp.MustCompile(`(?i)\b([A-Z]{2,5})\s*(\d{1,3})\s*([A-Z]?)\b`)
	refPrereqIntro         = regexp.MustCompile(`(?i)\bprerequisites?\b\s*:?\s*`)
	refOfferingPhrase      = regexp.MustCompile(`(?i)(?:usually\s+)?offered\s+every\s+(semester|year|fall|spring|second\s+year)`)
	refDanglingConnectives = regexp.MustCompile(`(?i)^(?:\s|,|;|\band\b|\bor\b)+|(?:\s|,|;|\band\b|\bor\b)+$`)
)

func refNormalizeCourseID(s string) (string, bool) {
	m := refCourseRef.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil || m[0] != strings.TrimSpace(s) {
		return "", false
	}
	return strings.ToUpper(m[1]) + " " + m[2] + strings.ToUpper(m[3]), true
}

func refParsePrereq(prose string) (expr.Expr, error) {
	loc := refPrereqIntro.FindStringIndex(prose)
	if loc == nil {
		return expr.True{}, nil
	}
	sentence := prose[loc[1]:]
	if i := strings.IndexAny(sentence, ".;\n"); i >= 0 {
		sentence = sentence[:i]
	}
	s := strings.ToLower(sentence)
	s = strings.NewReplacer(`"`, " ", "“", " ", "”", " ").Replace(s)
	for _, noise := range noisePhrases {
		s = strings.ReplaceAll(s, noise, " ")
	}
	s = strings.TrimSpace(s)
	if nonePhrases[strings.Trim(s, " .")] {
		return expr.True{}, nil
	}
	s = refCourseRef.ReplaceAllStringFunc(s, func(ref string) string {
		m := refCourseRef.FindStringSubmatch(ref)
		if m == nil || reservedWords[strings.ToLower(m[1])] {
			return ref
		}
		id, ok := refNormalizeCourseID(ref)
		if !ok {
			return ref
		}
		return `"` + id + `"`
	})
	for _, filler := range []string{"courses", "course", "both", "either", "completion of", "a grade of c- or higher in"} {
		s = strings.ReplaceAll(s, filler, " ")
	}
	s = refDanglingConnectives.ReplaceAllString(s, "")
	e, err := expr.Parse(s)
	if err != nil {
		pe := &PrereqError{
			Sentence: s,
			Raw:      strings.TrimSpace(sentence),
			Offset:   len(s),
			Err:      err,
		}
		var xe *expr.ParseError
		if errors.As(err, &xe) {
			pe.Offset = xe.Offset
			pe.Fragment = xe.Token
		}
		return nil, pe
	}
	return e, nil
}

func refParseOfferingPhrase(prose string, first, last term.Term) (offered []term.Term, ok bool) {
	m := refOfferingPhrase.FindStringSubmatch(prose)
	if m == nil {
		return nil, false
	}
	kind := strings.Join(strings.Fields(strings.ToLower(m[1])), " ")
	fallCount := 0
	for t := first; !t.After(last); t = t.Next() {
		keep := false
		switch kind {
		case "semester":
			keep = true
		case "fall", "year":
			keep = t.Season() == term.Fall
		case "spring":
			keep = t.Season() == term.Spring
		case "second year":
			if t.Season() == term.Fall {
				keep = fallCount%2 == 0
				fallCount++
			}
		}
		if keep {
			offered = append(offered, t)
		}
	}
	return offered, true
}

// courseIDSeeds are the reference forms the fast paths must agree with
// the regexps on: plain and spaced forms, letters (?i) folds from outside
// ASCII (ſ U+017F, K U+212A), missing and extra whitespace, 4-digit
// numbers and reserved words in the department position.
var courseIDSeeds = []string{
	"COSI 11A", "cosi 11a", "Cosi11a", "MATH 8", "MATH 8 a", "cosi 121b",
	" COSI 2A ", "COSI  11A", "COSI\t11A", "COSI 11A\v", " COSI 11A",
	"COSI 1234", "COSI 11AB", "ABCDEF 1", "A 1", "ab 1", "AB 1c",
	"ſOSI 11A", "COſI 11A", "COSI 11ſ", "KOSI 11A", "COSI 11K", "cosi 11k",
	"and 11", "or 2", "true 1", "none 3", "", "11A", "COSI", "COSI 11A and more",
	"COSI 11A.", "COSI 11A,", "COSI-11A", "é 11",
}

// FuzzNormalizeCourseID is the differential contract for the schedule
// parser's course references: the ASCII fast path and the regexp
// fallback together return what the reference regexp returns.
func FuzzNormalizeCourseID(f *testing.F) {
	for _, seed := range courseIDSeeds {
		f.Add(seed)
	}
	for _, line := range strings.Split(corpusSeed(f, "schedule.txt"), "\n") {
		course, _, _ := strings.Cut(line, "|")
		f.Add(course)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, ok := NormalizeCourseID(s)
		refID, refOK := refNormalizeCourseID(s)
		if id != refID || ok != refOK {
			t.Fatalf("NormalizeCourseID(%q) = %q,%v, reference %q,%v", s, id, ok, refID, refOK)
		}
	})
}

// FuzzParsePrereqDifferential is the differential contract for the
// Prerequisite and Schedule parsers' prose handling: on any description,
// ParsePrereq returns the reference's condition or the reference's
// error, field for field, trimConnectives trims what the reference
// regexp trims, and ParseOfferingPhrase returns the reference's
// offerings.
func FuzzParsePrereqDifferential(f *testing.F) {
	for _, seed := range []string{
		"No prerequisites. Offered every year.",
		"Prerequisite: COSI 11a.",
		"Prerequisites: COSI 11a and COSI 29a, or permission of the instructor.",
		"Prerequisite: cosi 21a or equivalent; recommended cosi 29a.",
		"Prerequisite: \"COSI 12B\" and (\"COSI 21A\" or “COSI 29A”).",
		"Prerequisite:",
		"Prerequisites: none",
		"prerequisite: (((",
		"Prerequisite: 11a, and, or",
		"PREREQUISITE: A B C D E F",
		"Prerequisite: and 11 or or 2 semesters.",
		"Prerequisite: COSI 1234 or COSI11a or cosi  21 a.",
		"Prerequisite: coſi 11a and cs 11ſ and xſ 12 and aKs 12.",
		"Prerequisite: 1ſb 12 and _ſc 11 and cs 11ſa and 9kk 1.",
		" , and or ;\t\f\rcosi 11a or, and ,; andor orand and_ or\v",
		"and", "or ", " AND cosi 11a Or", "x and", "ſand cosi 11a orſ",
		"Prerequiſite: COSI 11a. Uſually offered every ſpring.",
		"prerequisitex: COSI 11a",
		"Usually offered every second  year.",
		"Offered every fall. Prerequisites: a grade of c- or higher in MATH 10a.",
	} {
		f.Add(seed)
	}
	for _, seed := range courseIDSeeds {
		f.Add("Prerequisite: " + seed + ".")
	}
	f.Add(corpusSeed(f, "catalog.txt"))
	first := term.TwoSeason.MustTerm(2012, term.Fall)
	last := term.TwoSeason.MustTerm(2014, term.Fall)
	f.Fuzz(func(t *testing.T, prose string) {
		e, err := ParsePrereq(prose)
		refE, refErr := refParsePrereq(prose)
		if !reflect.DeepEqual(err, refErr) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("ParsePrereq(%q) error %#v, reference %#v", prose, err, refErr)
		}
		if !reflect.DeepEqual(e, refE) {
			t.Fatalf("ParsePrereq(%q) = %v, reference %v", prose, e, refE)
		}
		if got, want := trimConnectives(prose), refDanglingConnectives.ReplaceAllString(prose, ""); got != want {
			t.Fatalf("trimConnectives(%q) = %q, reference %q", prose, got, want)
		}
		offered, ok := ParseOfferingPhrase(prose, first, last)
		refOffered, refOK := refParseOfferingPhrase(prose, first, last)
		if ok != refOK || !reflect.DeepEqual(offered, refOffered) {
			t.Fatalf("ParseOfferingPhrase(%q) = %v,%v, reference %v,%v", prose, offered, ok, refOffered, refOK)
		}
	})
}
