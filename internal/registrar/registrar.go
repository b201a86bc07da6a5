// Package registrar reproduces CourseNavigator's back-end (paper §3,
// Figure 2): the Prerequisite Parser, which derives each course's boolean
// condition Q from free-form catalog prose, and the Schedule Parser, which
// derives each course's offering set S from schedule records and
// "usually offered" phrases.
//
// Input is the plain-text dump format documented per function. The import
// is one typed pass: ParseCatalogCourses yields catalog.Course values
// whose prerequisites are parsed expr trees and whose offerings are
// term.Terms, MergeSchedule overlays parsed schedule records on them, and
// catalog.FromCourses builds the catalog without printing or re-parsing
// either. ParseCatalogDump derives the serialisable []catalog.CourseSpec
// from the same courses for callers that want text. The embedded
// Brandeis-like dataset (internal/brandeis) ships pre-parsed, but
// cmd/coursenav can ingest registrar dumps through this package, and the
// integration tests run the full dump → catalog → explore pipeline.
//
// ASCII prose is scanned byte by byte; the regexps that define the
// scanners' matches (courseRef, prereqIntro, offeringPhrase) run only on
// prose with non-ASCII bytes, where (?i) folds ſ and K into ASCII letters.
//
// Every parser comes in two modes. The strict functions
// (ParseCatalogCourses, ParseScheduleRecords, ParsePrereq, MergeSchedule)
// abort on the first malformed record — the right behaviour for curated
// input. The lenient variants (ParseCatalogCoursesLenient, …) quarantine
// bad records and accumulate structured Diagnostics instead, so one
// corrupt course in a registrar dump of thousands cannot take down the
// whole import; real course-prerequisite datasets are full of exactly such
// defects.
package registrar

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/term"
)

// courseRef matches registrar course references like "COSI 11a",
// "MATH 8 a", "cosi 121b". It defines what courseRefAt scans for in ASCII
// text, and finds references in text with non-ASCII bytes.
var courseRef = regexp.MustCompile(`(?i)\b([A-Z]{2,5})\s*(\d{1,3})\s*([A-Z]?)\b`)

// NormalizeCourseID canonicalises a course reference to "DEPT NUMLETTER"
// form: "cosi 11a" → "COSI 11A". It returns ok=false when s is not a
// course reference.
func NormalizeCourseID(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if !isASCII(s) {
		m := courseRef.FindStringSubmatch(s)
		if m == nil || m[0] != s {
			return "", false
		}
		return strings.ToUpper(m[1]) + " " + m[2] + strings.ToUpper(m[3]), true
	}
	m, ok := courseRefAt(s, 0)
	if !ok || m.end != len(s) {
		return "", false
	}
	if m.num == m.deptEnd+1 && s[m.deptEnd] == ' ' && m.letter == m.numEnd {
		// Already "DEPT NUMLETTER" up to letter case.
		return asciiUpper(s), true
	}
	return asciiUpper(m.dept(s)) + " " + m.number(s) + asciiUpper(m.section(s)), true
}

// prereqIntro locates the prerequisite sentence inside course prose. It
// defines what prereqIntroAt scans for in ASCII prose, and finds the
// sentence in prose with non-ASCII bytes.
var prereqIntro = regexp.MustCompile(`(?i)\bprerequisites?\b\s*:?\s*`)

// noise phrases the Prerequisite Parser drops from the prerequisite
// sentence before parsing (they do not constrain course completion).
var noisePhrases = []string{
	"or permission of the instructor",
	"or instructor permission",
	"or equivalent",
	"or consent of the instructor",
	"recommended",
}

// trimConnectives drops the connective debris noise removal leaves at
// either end of a sentence ("..., or "): the longest leading run of
// connectives, and the trailing run that reaches the end of s from the
// leftmost position it can start at. A connective is one of the regexp
// `\s|,|;|\band\b|\bor\b` (?i) alternatives; no connective starts inside
// another, so one forward scan finds both runs.
func trimConnectives(s string) string {
	start := 0
	for n := connectiveAt(s, 0); n > 0; n = connectiveAt(s, start) {
		start += n
	}
	end := -1 // start of the run being scanned; -1 outside one
	for i := start; i < len(s); {
		if n := connectiveAt(s, i); n > 0 {
			if end < 0 {
				end = i
			}
			i += n
			continue
		}
		end = -1
		i++
	}
	if end < 0 {
		end = len(s)
	}
	return s[start:end]
}

// connectiveAt returns the length of the connective at s[i:], 0 if none:
// one of \t \n \f \r space , ; or the word "and" or "or" in any letter
// case with an ASCII word boundary on each side.
func connectiveAt(s string, i int) int {
	if i >= len(s) {
		return 0
	}
	switch s[i] {
	case '\t', '\n', '\f', '\r', ' ', ',', ';':
		return 1
	}
	if i > 0 && isWordByte(s[i-1]) {
		return 0
	}
	for _, w := range [...]string{"and", "or"} {
		j := i + len(w)
		if j <= len(s) && strings.EqualFold(s[i:j], w) && (j == len(s) || !isWordByte(s[j])) {
			return len(w)
		}
	}
	return 0
}

// reservedWords are expression-grammar keywords that the reference
// matcher must never treat as department codes.
var reservedWords = map[string]bool{"and": true, "or": true, "true": true, "none": true}

// nonePhrases mean "no prerequisite".
var nonePhrases = map[string]bool{"": true, "none": true, "n/a": true, "open to all": true}

// quotesToSpace drops the quote characters from a prerequisite sentence.
var quotesToSpace = strings.NewReplacer(`"`, " ", "“", " ", "”", " ")

// fillerWords commonly precede references and are dropped before parsing.
var fillerWords = []string{"courses", "course", "both", "either", "completion of", "a grade of c- or higher in"}

// ParsePrereq extracts the prerequisite condition from free-form course
// prose. It finds the sentence introduced by "Prerequisite(s):", strips
// advisory noise ("or permission of the instructor"), canonicalises course
// references, maps commas between references to conjunction (registrar
// style: "COSI 11a, COSI 29a" means both) and parses the result with the
// internal/expr grammar. Prose without a prerequisite sentence yields the
// no-prerequisite tautology. A failure is reported as *PrereqError, which
// carries the byte offset and text of the offending fragment.
func ParsePrereq(prose string) (expr.Expr, error) {
	start, ok := prereqStart(prose)
	if !ok {
		return expr.True{}, nil
	}
	sentence := prose[start:]
	// The sentence ends at the first period that is not inside a course
	// number ("COSI 11a." ends it; decimals do not occur).
	if i := strings.IndexAny(sentence, ".;\n"); i >= 0 {
		sentence = sentence[:i]
	}
	s := strings.ToLower(sentence)
	// Typographic quotes in prose would collide with the expression
	// grammar's quoting; registrar references never need them.
	if strings.Contains(s, `"`) || strings.Contains(s, "“") || strings.Contains(s, "”") {
		s = quotesToSpace.Replace(s)
	}
	for _, noise := range noisePhrases {
		s = strings.ReplaceAll(s, noise, " ")
	}
	s = strings.TrimSpace(s)
	if nonePhrases[strings.Trim(s, " .")] {
		return expr.True{}, nil
	}
	s = quoteCourseRefs(s)
	// Drop leftover filler words that commonly precede references.
	for _, filler := range fillerWords {
		s = strings.ReplaceAll(s, filler, " ")
	}
	s = trimConnectives(s)
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

// prereqStart returns where the prerequisite sentence in prose begins:
// the end of prereqIntro's first match.
func prereqStart(prose string) (int, bool) {
	if isASCII(prose) {
		return prereqIntroAt(prose)
	}
	loc := prereqIntro.FindStringIndex(prose)
	if loc == nil {
		return 0, false
	}
	return loc[1], true
}

// quoteCourseRefs canonicalises and quotes every course reference in a
// prerequisite sentence so the expr parser sees clean two-word IDs.
// Connectives followed by digits ("or 2 semesters") are not references.
//
// One courseRef pass finds the references and their parts: the byte
// scanner on ASCII s, the regexp otherwise. A reference's canonical form
// is defined by matching it alone. One that begins and ends with an ASCII
// character matches alone exactly as it matched in the sentence, parts
// included, so its parts are used as found. One that begins or ends with
// a non-ASCII letter (ſ, which (?i) folds to s) can lose a word boundary
// alone, so it is re-matched.
func quoteCourseRefs(s string) string {
	var buf [16]refMatch
	refs := buf[:0]
	if isASCII(s) {
		refs = appendCourseRefs(refs, s)
	} else {
		for _, m := range courseRef.FindAllStringSubmatchIndex(s, -1) {
			refs = append(refs, refMatch{m[0], m[3], m[4], m[5], m[6], m[7]})
		}
	}
	if len(refs) == 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 3*len(refs))
	last := 0
	for _, m := range refs {
		b.WriteString(s[last:m.start])
		last = m.end
		ref := s[m.start:m.end]
		if ref[0] >= utf8.RuneSelf || ref[len(ref)-1] >= utf8.RuneSelf {
			b.WriteString(quoteRefAlone(ref))
			continue
		}
		dept := m.dept(s)
		if reservedWords[strings.ToLower(dept)] {
			b.WriteString(ref)
			continue
		}
		b.WriteByte('"')
		writeUpper(&b, dept)
		b.WriteByte(' ')
		b.WriteString(m.number(s))
		writeUpper(&b, m.section(s))
		b.WriteByte('"')
	}
	b.WriteString(s[last:])
	return b.String()
}

// writeUpper writes strings.ToUpper(s) to b, without the intermediate
// string when s is ASCII.
func writeUpper(b *strings.Builder, s string) {
	if !isASCII(s) {
		b.WriteString(strings.ToUpper(s))
		return
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// quoteRefAlone is quoteCourseRefs' rule for one reference matched on
// its own.
func quoteRefAlone(ref string) string {
	m := courseRef.FindStringSubmatch(ref)
	if m == nil || reservedWords[strings.ToLower(m[1])] {
		return ref
	}
	id, ok := NormalizeCourseID(ref)
	if !ok {
		return ref
	}
	return `"` + id + `"`
}

// ParsePrereqLenient is ParsePrereq in lenient mode: an unparseable
// prerequisite sentence yields the no-prerequisite tautology plus an
// error-severity diagnostic describing the failing fragment, instead of an
// error. Callers decide whether to quarantine the course or accept the
// weakened condition; ParseCatalogDumpLenient quarantines.
func ParsePrereqLenient(prose string) (expr.Expr, []Diagnostic) {
	e, err := ParsePrereq(prose)
	if err == nil {
		return e, nil
	}
	return expr.True{}, []Diagnostic{{
		Field:    "prereq",
		Severity: SevError,
		Msg:      err.Error(),
	}}
}

// offeringPhrase matches "usually offered every ..." scheduling prose. It
// defines what offeringKindAt scans for in ASCII prose, and finds the
// phrase in prose with non-ASCII bytes.
var offeringPhrase = regexp.MustCompile(`(?i)(?:usually\s+)?offered\s+every\s+(semester|year|fall|spring|second\s+year)`)

// ParseOfferingPhrase expands a catalog scheduling phrase over the window
// [first, last]:
//
//	"offered every semester"    → every term
//	"offered every fall"        → fall terms
//	"offered every spring"      → spring terms
//	"offered every year"        → fall terms (one offering per year)
//	"offered every second year" → every other fall, starting with the
//	                              first fall in the window
//
// ok=false means the prose contains no recognised phrase.
func ParseOfferingPhrase(prose string, first, last term.Term) (offered []term.Term, ok bool) {
	kind, ok := offeringKind(prose)
	if !ok {
		return nil, false
	}
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

// offeringKind returns offeringPhrase's first match's kind in prose, in
// lower case with single spaces: "semester", "year", "fall", "spring" or
// "second year".
func offeringKind(prose string) (string, bool) {
	if isASCII(prose) {
		return offeringKindAt(prose)
	}
	m := offeringPhrase.FindStringSubmatch(prose)
	if m == nil {
		return "", false
	}
	return strings.Join(strings.Fields(strings.ToLower(m[1])), " "), true
}

// ParseScheduleRecords parses a class-schedule dump: one "COURSE | TERM"
// record per line ("COSI 11A | Fall 2011"), '#' comments and blank lines
// ignored. It returns offerings per normalised course ID, aborting on the
// first malformed line.
func ParseScheduleRecords(r io.Reader, cal *term.Calendar) (map[string][]term.Term, error) {
	out, _, err := parseScheduleRecords(r, cal, false)
	return out, err
}

// ParseScheduleRecordsLenient is ParseScheduleRecords in lenient mode:
// malformed lines are skipped with an error-severity diagnostic naming the
// line, and the well-formed remainder is returned. The error is non-nil
// only when reading r itself fails.
func ParseScheduleRecordsLenient(r io.Reader, cal *term.Calendar) (map[string][]term.Term, []Diagnostic, error) {
	return parseScheduleRecords(r, cal, true)
}

func parseScheduleRecords(r io.Reader, cal *term.Calendar, lenient bool) (map[string][]term.Term, []Diagnostic, error) {
	var diags []Diagnostic
	// quarantine records the line's defect (lenient) or aborts (strict).
	quarantine := func(lineNo int, course, format string, args ...interface{}) error {
		if lenient {
			diags = append(diags, Diagnostic{
				Line: lineNo, Course: course, Field: "schedule",
				Severity: SevError, Msg: fmt.Sprintf(format, args...),
			})
			return nil
		}
		return fmt.Errorf("registrar: schedule line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	// A schedule spells each course and a few term labels over many
	// records: normalise and parse each distinct spelling once.
	ids := map[string]string{}
	labels := term.NewLabels(cal)
	type record struct {
		id string
		t  term.Term
	}
	var recs []record
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		course, label, found := bytes.Cut(line, []byte("|"))
		if !found {
			if err := quarantine(lineNo, "", "want \"COURSE | TERM\", got %q", line); err != nil {
				return nil, diags, err
			}
			continue
		}
		id, ok := ids[string(course)]
		if !ok {
			spelling := string(course)
			if id, ok = NormalizeCourseID(spelling); !ok {
				if err := quarantine(lineNo, "", "bad course reference %q", spelling); err != nil {
					return nil, diags, err
				}
				continue
			}
			ids[spelling] = id
		}
		t, err := labels.ParseBytes(label)
		if err != nil {
			if err := quarantine(lineNo, id, "%v", err); err != nil {
				return nil, diags, err
			}
			continue
		}
		recs = append(recs, record{id, t})
	}
	if err := sc.Err(); err != nil {
		return nil, diags, fmt.Errorf("registrar: reading schedule: %w", err)
	}
	// Group the records by course, in input order, over one backing array.
	n := make(map[string]int, len(ids))
	for _, rc := range recs {
		n[rc.id]++
	}
	out := make(map[string][]term.Term, len(n))
	backing := make([]term.Term, len(recs))
	for _, rc := range recs {
		ts, ok := out[rc.id]
		if !ok {
			ts, backing = backing[:0:n[rc.id]], backing[n[rc.id]:]
		}
		out[rc.id] = append(ts, rc.t)
	}
	return out, diags, nil
}

// ParseCatalogCourses parses a registrar catalog dump into courses. The
// format is block-per-course, keys "course:", "title:", "description:",
// "workload:", blocks separated by blank lines:
//
//	course: COSI 21A
//	title: Data Structures and Algorithms
//	description: Stacks, queues, trees. Prerequisite: COSI 11a.
//	  Usually offered every semester.
//	workload: 12
//
// Prerequisites and "usually offered" schedules are extracted from the
// description by the Prerequisite and Schedule parsers; explicit schedule
// records (ParseScheduleRecords) may be merged on top via MergeSchedule.
// Offerings from phrases are expanded over [first, last]. The first
// malformed record (including a duplicate course ID) aborts the parse;
// use ParseCatalogCoursesLenient to quarantine bad records instead.
func ParseCatalogCourses(r io.Reader, first, last term.Term) ([]catalog.Course, error) {
	courses, _, err := parseCatalogDump(r, first, last, false)
	return courses, err
}

// ParseCatalogCoursesLenient is ParseCatalogCourses in lenient mode: a
// malformed record (unparseable course ID, bad workload, unknown key,
// prerequisite prose the grammar rejects, duplicate course ID) is
// quarantined — dropped from the returned courses — with error-severity
// Diagnostics identifying the defective lines, while every well-formed
// record still imports. The error is non-nil only when reading r fails,
// the window is invalid, or the dump contains no course records at all.
func ParseCatalogCoursesLenient(r io.Reader, first, last term.Term) ([]catalog.Course, []Diagnostic, error) {
	return parseCatalogDump(r, first, last, true)
}

// ParseCatalogDump is ParseCatalogCourses returning each course in its
// serialised form (catalog.Course.Spec), offerings nil when there are
// none.
func ParseCatalogDump(r io.Reader, first, last term.Term) ([]catalog.CourseSpec, error) {
	courses, err := ParseCatalogCourses(r, first, last)
	return specs(courses), err
}

// ParseCatalogDumpLenient is ParseCatalogCoursesLenient returning each
// course in its serialised form, as ParseCatalogDump does.
func ParseCatalogDumpLenient(r io.Reader, first, last term.Term) ([]catalog.CourseSpec, []Diagnostic, error) {
	courses, diags, err := ParseCatalogCoursesLenient(r, first, last)
	return specs(courses), diags, err
}

// specs returns the serialised form of courses, nil for none.
func specs(courses []catalog.Course) []catalog.CourseSpec {
	if len(courses) == 0 {
		return nil
	}
	out := make([]catalog.CourseSpec, len(courses))
	for i, c := range courses {
		out[i] = c.Spec()
	}
	return out
}

func parseCatalogDump(r io.Reader, first, last term.Term, lenient bool) ([]catalog.Course, []Diagnostic, error) {
	if first.IsZero() || last.IsZero() || first.Calendar() != last.Calendar() {
		return nil, nil, fmt.Errorf("registrar: invalid schedule window")
	}
	var (
		courses  []catalog.Course
		diags    []Diagnostic
		cur      catalog.Course
		open     bool   // a record is being read into cur
		curBad   bool   // lenient: current record is quarantined, drop at flush
		desc     string // the description while it is one piece, a slice of its line
		descMore []byte // the description once a second piece arrives
		lastKey  string
		seen     = map[string]bool{} // IDs successfully flushed (lenient dedup)
		courseLn int                 // line of the current record's "course:" key
		descLn   int                 // first description line of the current record
	)

	flush := func() error {
		if !open {
			return nil
		}
		defer func() {
			open = false
			curBad = false
			desc, descMore = "", descMore[:0]
		}()
		if curBad {
			return nil // diagnostics already recorded
		}
		prose := desc
		if len(descMore) > 0 {
			prose = string(descMore)
		}
		q, err := ParsePrereq(prose)
		if err != nil {
			if !lenient {
				return fmt.Errorf("registrar: course %s: %v", cur.ID, err)
			}
			ln := descLn
			if ln == 0 {
				ln = courseLn
			}
			diags = append(diags, Diagnostic{
				Line: ln, Course: cur.ID, Field: "prereq",
				Severity: SevError, Msg: err.Error(),
			})
			return nil
		}
		if seen[cur.ID] {
			if !lenient {
				return fmt.Errorf("registrar: line %d: duplicate course %q", courseLn, cur.ID)
			}
			diags = append(diags, Diagnostic{
				Line: courseLn, Course: cur.ID, Field: "course",
				Severity: SevError, Msg: fmt.Sprintf("duplicate course %q", cur.ID),
			})
			return nil
		}
		cur.Prereq = q
		cur.Offered, _ = ParseOfferingPhrase(prose, first, last)
		seen[cur.ID] = true
		courses = append(courses, cur)
		return nil
	}

	// reject records a per-record defect: in lenient mode the current
	// record is poisoned (dropped at flush) and parsing continues; in
	// strict mode the parse aborts with the formatted error.
	reject := func(lineNo int, field, format string, args ...interface{}) error {
		if !lenient {
			return fmt.Errorf("registrar: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		d := Diagnostic{
			Line: lineNo, Field: field,
			Severity: SevError, Msg: fmt.Sprintf(format, args...),
		}
		if open {
			d.Course = cur.ID
		}
		diags = append(diags, d)
		curBad = true
		return nil
	}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" {
			if err := flush(); err != nil {
				return nil, diags, err
			}
			lastKey = ""
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		isContinuation := !found || strings.HasPrefix(raw, " ") || strings.HasPrefix(raw, "\t")
		if isContinuation && lastKey == "description" {
			if len(descMore) == 0 {
				descMore = append(descMore, desc...)
			}
			descMore = append(descMore, ' ')
			descMore = append(descMore, line...)
			continue
		}
		switch key {
		case "course":
			if err := flush(); err != nil {
				return nil, diags, err
			}
			courseLn, descLn = lineNo, 0
			id, ok := NormalizeCourseID(val)
			if !ok {
				if err := reject(lineNo, "course", "bad course id %q", val); err != nil {
					return nil, diags, err
				}
				// Poison a placeholder record so the block's remaining
				// lines attach to it instead of reading as orphans.
				cur, open = catalog.Course{}, true
				curBad = true
				lastKey = "course"
				continue
			}
			cur, open = catalog.Course{ID: id}, true
			lastKey = "course"
		case "title":
			if !open {
				if err := reject(lineNo, "key", "%q before course:", key); err != nil {
					return nil, diags, err
				}
				continue
			}
			cur.Title = val
			lastKey = "title"
		case "description":
			if !open {
				if err := reject(lineNo, "key", "%q before course:", key); err != nil {
					return nil, diags, err
				}
				continue
			}
			if descLn == 0 {
				descLn = lineNo
			}
			if len(descMore) > 0 {
				descMore = append(descMore, val...)
			} else if desc != "" {
				descMore = append(append(descMore, desc...), val...)
			} else {
				desc = val
			}
			lastKey = "description"
		case "workload":
			if !open {
				if err := reject(lineNo, "key", "%q before course:", key); err != nil {
					return nil, diags, err
				}
				continue
			}
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || w < 0 {
				if err := reject(lineNo, "workload", "bad workload %q", val); err != nil {
					return nil, diags, err
				}
				continue
			}
			cur.Workload = w
			lastKey = "workload"
		default:
			if err := reject(lineNo, "key", "unknown key %q", key); err != nil {
				return nil, diags, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, diags, fmt.Errorf("registrar: reading catalog: %w", err)
	}
	if err := flush(); err != nil {
		return nil, diags, err
	}
	if len(courses) == 0 && (!lenient || len(diags) == 0) {
		return nil, diags, fmt.Errorf("registrar: empty catalog dump")
	}
	return courses, diags, nil
}

// MergeSchedule overlays explicit schedule records onto courses: a course
// with records gets exactly those offerings (records are authoritative
// over catalog phrases, matching how registrars publish final schedules).
// The courses share the records' slices. Records for unknown courses are
// an error.
func MergeSchedule(courses []catalog.Course, records map[string][]term.Term) error {
	_, err := mergeSchedule(courses, records, false)
	return err
}

// MergeScheduleLenient is MergeSchedule in lenient mode: records for
// unknown courses are skipped with a warning diagnostic (the course they
// belonged to may itself have been quarantined) instead of aborting.
func MergeScheduleLenient(courses []catalog.Course, records map[string][]term.Term) []Diagnostic {
	diags, _ := mergeSchedule(courses, records, true)
	return diags
}

func mergeSchedule(courses []catalog.Course, records map[string][]term.Term, lenient bool) ([]Diagnostic, error) {
	byID := make(map[string]int, len(courses))
	for i, c := range courses {
		byID[c.ID] = i
	}
	var unknown []string
	for id, offered := range records {
		if i, ok := byID[id]; ok {
			courses[i].Offered = offered
		} else {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) == 0 {
		return nil, nil
	}
	// Report unknown courses in ID order, so diagnostics are
	// deterministic.
	sort.Strings(unknown)
	if !lenient {
		return nil, fmt.Errorf("registrar: schedule record for unknown course %q", unknown[0])
	}
	diags := make([]Diagnostic, len(unknown))
	for i, id := range unknown {
		diags[i] = Diagnostic{
			Course: id, Field: "merge", Severity: SevWarning,
			Msg: fmt.Sprintf("schedule record for unknown course %q ignored", id),
		}
	}
	return diags, nil
}
