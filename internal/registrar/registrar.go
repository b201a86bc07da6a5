// Package registrar reproduces CourseNavigator's back-end (paper §3,
// Figure 2): the Prerequisite Parser, which derives each course's boolean
// condition Q from free-form catalog prose, and the Schedule Parser, which
// derives each course's offering set S from schedule records and
// "usually offered" phrases.
//
// Input is the plain-text dump format documented per function; the output
// is []catalog.CourseSpec ready for catalog.FromSpecs. The embedded
// Brandeis-like dataset (internal/brandeis) ships pre-parsed, but
// cmd/coursenav can ingest registrar dumps through this package, and the
// integration tests run the full dump → catalog → explore pipeline.
//
// Every parser comes in two modes. The strict functions (ParseCatalogDump,
// ParseScheduleRecords, ParsePrereq, MergeSchedule) abort on the first
// malformed record — the right behaviour for curated input. The lenient
// variants (ParseCatalogDumpLenient, …) quarantine bad records and
// accumulate structured Diagnostics instead, so one corrupt course in a
// registrar dump of thousands cannot take down the whole import; real
// course-prerequisite datasets are full of exactly such defects.
package registrar

import (
	"bufio"
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
// "MATH 8 a", "cosi 121b".
var courseRef = regexp.MustCompile(`(?i)\b([A-Z]{2,5})\s*(\d{1,3})\s*([A-Z]?)\b`)

// NormalizeCourseID canonicalises a course reference to "DEPT NUMLETTER"
// form: "cosi 11a" → "COSI 11A". It returns ok=false when s is not a
// course reference.
func NormalizeCourseID(s string) (string, bool) {
	s = strings.TrimSpace(s)
	if isPlainCourseID(s) {
		return asciiUpper(s), true
	}
	m := courseRef.FindStringSubmatch(s)
	if m == nil || m[0] != s {
		return "", false
	}
	return strings.ToUpper(m[1]) + " " + m[2] + strings.ToUpper(m[3]), true
}

// isPlainCourseID reports whether s has the form registrars emit:
// ASCII LETTERS{2,5}, exactly one space, DIGITS{1,3} and an optional
// ASCII letter. courseRef matches such an s whole, with the space as its
// only separator, so its canonical form is s in upper case. Every other
// form (other whitespace, no space, letters that (?i) folds from outside
// ASCII such as ſ and K) is left to courseRef.
func isPlainCourseID(s string) bool {
	i := 0
	for i < len(s) && isASCIILetter(s[i]) {
		i++
	}
	if i < 2 || i > 5 || i == len(s) || s[i] != ' ' {
		return false
	}
	i++
	j := i
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if j == i || j-i > 3 {
		return false
	}
	return j == len(s) || (j == len(s)-1 && isASCIILetter(s[j]))
}

func isASCIILetter(b byte) bool { return b|0x20 >= 'a' && b|0x20 <= 'z' }

// asciiUpper upper-cases an ASCII string, returning s itself when it has
// no lower-case letters.
func asciiUpper(s string) string {
	i := 0
	for i < len(s) && (s[i] < 'a' || s[i] > 'z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// mayContainFold reports whether prose can contain word (lower-case
// ASCII) under (?i) matching. It is false only for all-ASCII prose
// without word in any letter case; non-ASCII prose may spell word with
// letters that fold into ASCII (ſ for s, K for k), so it reports true.
// The Prerequisite and Schedule parsers use it to skip their regexps on
// descriptions that cannot match.
func mayContainFold(prose, word string) bool {
	for i := 0; i < len(prose); i++ {
		if prose[i] >= utf8.RuneSelf {
			return true
		}
	}
	for i := 0; i+len(word) <= len(prose); i++ {
		if strings.EqualFold(prose[i:i+len(word)], word) {
			return true
		}
	}
	return false
}

// prereqIntro locates the prerequisite sentence inside course prose.
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

// isWordByte reports whether b is an ASCII word character, the class a
// regexp \b tests; bytes of non-ASCII runes are never word characters.
func isWordByte(b byte) bool { return isASCIILetter(b) || b >= '0' && b <= '9' || b == '_' }

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
	if !mayContainFold(prose, "prerequisite") {
		return expr.True{}, nil
	}
	loc := prereqIntro.FindStringIndex(prose)
	if loc == nil {
		return expr.True{}, nil
	}
	sentence := prose[loc[1]:]
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

// quoteCourseRefs canonicalises and quotes every course reference in a
// prerequisite sentence so the expr parser sees clean two-word IDs.
// Connectives followed by digits ("or 2 semesters") are not references.
//
// One courseRef pass finds the references and their parts. A reference's
// canonical form is defined by matching it alone. One that begins and
// ends with an ASCII character matches alone exactly as it matched in the
// sentence, parts included, so its parts are used as found. One that
// begins or ends with a non-ASCII letter (ſ, which (?i) folds to s) can
// lose a word boundary alone, so it is re-matched.
func quoteCourseRefs(s string) string {
	refs := courseRef.FindAllStringSubmatchIndex(s, -1)
	if refs == nil {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2*len(refs))
	last := 0
	for _, m := range refs {
		b.WriteString(s[last:m[0]])
		last = m[1]
		ref := s[m[0]:m[1]]
		if ref[0] >= utf8.RuneSelf || ref[len(ref)-1] >= utf8.RuneSelf {
			b.WriteString(quoteRefAlone(ref))
			continue
		}
		dept := s[m[2]:m[3]]
		if reservedWords[strings.ToLower(dept)] {
			b.WriteString(ref)
			continue
		}
		b.WriteByte('"')
		b.WriteString(strings.ToUpper(dept))
		b.WriteByte(' ')
		b.WriteString(s[m[4]:m[5]])
		b.WriteString(strings.ToUpper(s[m[6]:m[7]]))
		b.WriteByte('"')
	}
	b.WriteString(s[last:])
	return b.String()
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

// offeringPhrase matches "usually offered every ..." scheduling prose.
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
	if !mayContainFold(prose, "offered") {
		return nil, false
	}
	m := offeringPhrase.FindStringSubmatch(prose)
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
	out := map[string][]term.Term{}
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
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		course, label, found := strings.Cut(line, "|")
		if !found {
			if err := quarantine(lineNo, "", "want \"COURSE | TERM\", got %q", line); err != nil {
				return nil, diags, err
			}
			continue
		}
		id, ok := NormalizeCourseID(course)
		if !ok {
			if err := quarantine(lineNo, "", "bad course reference %q", course); err != nil {
				return nil, diags, err
			}
			continue
		}
		t, err := term.Parse(cal, label)
		if err != nil {
			if err := quarantine(lineNo, id, "%v", err); err != nil {
				return nil, diags, err
			}
			continue
		}
		out[id] = append(out[id], t)
	}
	if err := sc.Err(); err != nil {
		return nil, diags, fmt.Errorf("registrar: reading schedule: %w", err)
	}
	return out, diags, nil
}

// ParseCatalogDump parses a registrar catalog dump into course specs. The
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
// use ParseCatalogDumpLenient to quarantine bad records instead.
func ParseCatalogDump(r io.Reader, first, last term.Term) ([]catalog.CourseSpec, error) {
	specs, _, err := parseCatalogDump(r, first, last, false)
	return specs, err
}

// ParseCatalogDumpLenient is ParseCatalogDump in lenient mode: a malformed
// record (unparseable course ID, bad workload, unknown key, prerequisite
// prose the grammar rejects, duplicate course ID) is quarantined — dropped
// from the returned specs — with error-severity Diagnostics identifying
// the defective lines, while every well-formed record still imports. The
// error is non-nil only when reading r fails, the window is invalid, or
// the dump contains no course records at all.
func ParseCatalogDumpLenient(r io.Reader, first, last term.Term) ([]catalog.CourseSpec, []Diagnostic, error) {
	return parseCatalogDump(r, first, last, true)
}

func parseCatalogDump(r io.Reader, first, last term.Term, lenient bool) ([]catalog.CourseSpec, []Diagnostic, error) {
	if first.IsZero() || last.IsZero() || first.Calendar() != last.Calendar() {
		return nil, nil, fmt.Errorf("registrar: invalid schedule window")
	}
	var (
		specs    []catalog.CourseSpec
		diags    []Diagnostic
		cur      *catalog.CourseSpec
		curBad   bool // lenient: current record is quarantined, drop at flush
		desc     strings.Builder
		lastKey  string
		seen     = map[string]bool{} // IDs successfully flushed (lenient dedup)
		courseLn int                 // line of the current record's "course:" key
		descLn   int                 // first description line of the current record
	)

	flush := func() error {
		if cur == nil {
			return nil
		}
		defer func() {
			cur = nil
			curBad = false
			desc.Reset()
		}()
		if curBad {
			return nil // diagnostics already recorded
		}
		prose := desc.String()
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
		if _, isTrue := q.(expr.True); !isTrue {
			cur.Prereq = q.String()
		}
		if offered, ok := ParseOfferingPhrase(prose, first, last); ok {
			for _, t := range offered {
				cur.Offered = append(cur.Offered, t.Label())
			}
		}
		seen[cur.ID] = true
		specs = append(specs, *cur)
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
		if cur != nil {
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
			desc.WriteByte(' ')
			desc.WriteString(line)
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
				cur = &catalog.CourseSpec{}
				curBad = true
				lastKey = "course"
				continue
			}
			cur = &catalog.CourseSpec{ID: id}
			lastKey = "course"
		case "title":
			if cur == nil {
				if err := reject(lineNo, "key", "%q before course:", key); err != nil {
					return nil, diags, err
				}
				continue
			}
			cur.Title = val
			lastKey = "title"
		case "description":
			if cur == nil {
				if err := reject(lineNo, "key", "%q before course:", key); err != nil {
					return nil, diags, err
				}
				continue
			}
			if descLn == 0 {
				descLn = lineNo
			}
			desc.WriteString(val)
			lastKey = "description"
		case "workload":
			if cur == nil {
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
	if len(specs) == 0 && (!lenient || len(diags) == 0) {
		return nil, diags, fmt.Errorf("registrar: empty catalog dump")
	}
	return specs, diags, nil
}

// MergeSchedule overlays explicit schedule records onto specs: a course
// with records gets exactly those offerings (records are authoritative
// over catalog phrases, matching how registrars publish final schedules).
// Records for unknown courses are an error.
func MergeSchedule(specs []catalog.CourseSpec, records map[string][]term.Term) error {
	_, err := mergeSchedule(specs, records, false)
	return err
}

// MergeScheduleLenient is MergeSchedule in lenient mode: records for
// unknown courses are skipped with a warning diagnostic (the course they
// belonged to may itself have been quarantined) instead of aborting.
func MergeScheduleLenient(specs []catalog.CourseSpec, records map[string][]term.Term) []Diagnostic {
	diags, _ := mergeSchedule(specs, records, true)
	return diags
}

func mergeSchedule(specs []catalog.CourseSpec, records map[string][]term.Term, lenient bool) ([]Diagnostic, error) {
	byID := map[string]int{}
	for i, sp := range specs {
		byID[sp.ID] = i
	}
	var diags []Diagnostic
	for _, id := range sortedKeys(records) {
		offered := records[id]
		i, ok := byID[id]
		if !ok {
			if !lenient {
				return nil, fmt.Errorf("registrar: schedule record for unknown course %q", id)
			}
			diags = append(diags, Diagnostic{
				Course: id, Field: "merge", Severity: SevWarning,
				Msg: fmt.Sprintf("schedule record for unknown course %q ignored", id),
			})
			continue
		}
		labels := make([]string, len(offered))
		for j, t := range offered {
			labels[j] = t.Label()
		}
		specs[i].Offered = labels
	}
	return diags, nil
}

// sortedKeys returns the map's keys sorted, so lenient diagnostics are
// deterministic.
func sortedKeys(m map[string][]term.Term) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
