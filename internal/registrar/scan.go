package registrar

import (
	"strings"
	"unicode/utf8"
)

// Byte scanners for ASCII prose. Each reproduces the leftmost-first match
// of one regexp in registrar.go on ASCII input, where (?i) folds only
// ASCII letters and \b and \s are ASCII classes; the regexps stay the
// path for prose with non-ASCII bytes. FuzzScannersMatchRegexps holds the
// scanners to them.

// isASCII reports whether s is all ASCII.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func isASCIILetter(b byte) bool { return b|0x20 >= 'a' && b|0x20 <= 'z' }

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// isWordByte reports whether b is an ASCII word character, the class a
// regexp \b tests; bytes of non-ASCII runes are never word characters.
func isWordByte(b byte) bool { return isASCIILetter(b) || isDigit(b) || b == '_' }

// isSpaceByte reports whether b is in the regexp class \s: \t \n \f \r or
// space.
func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\f' || b == '\r'
}

// skipSpace returns the end of the \s* run at s[i:].
func skipSpace(s string, i int) int {
	for i < len(s) && isSpaceByte(s[i]) {
		i++
	}
	return i
}

// hasFoldPrefix reports whether s begins with word (lower-case ASCII) in
// any ASCII letter case.
func hasFoldPrefix(s, word string) bool {
	return len(s) >= len(word) && strings.EqualFold(s[:len(word)], word)
}

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

// refMatch is one courseRef match in s: s[start:end], with the
// department s[start:deptEnd], the number s[num:numEnd] and the section
// letter s[letter:end], empty when letter == end.
type refMatch struct{ start, deptEnd, num, numEnd, letter, end int }

// dept, number and section return the match's three capture groups.
func (m refMatch) dept(s string) string    { return s[m.start:m.deptEnd] }
func (m refMatch) number(s string) string  { return s[m.num:m.numEnd] }
func (m refMatch) section(s string) string { return s[m.letter:m.end] }

// courseRefAt matches courseRef, `(?i)\b([A-Z]{2,5})\s*(\d{1,3})\s*([A-Z]?)\b`,
// at exactly s[i:] of ASCII s, taking the regexp's preferred match. The
// letter and digit runs must be maximal: a shorter department leaves a
// letter where \s*\d needs a digit, and a shorter number leaves a digit
// that neither [A-Z]? nor \b accepts. After the number, \s* takes every
// space, then [A-Z]? a letter that ends a word. Failing that the match
// ends before a word character that follows the spaces, or else right
// after the number.
func courseRefAt(s string, i int) (refMatch, bool) {
	if i > 0 && isWordByte(s[i-1]) {
		return refMatch{}, false
	}
	m := refMatch{start: i, deptEnd: i}
	for m.deptEnd < len(s) && isASCIILetter(s[m.deptEnd]) {
		m.deptEnd++
	}
	if n := m.deptEnd - i; n < 2 || n > 5 {
		return refMatch{}, false
	}
	m.num = skipSpace(s, m.deptEnd)
	m.numEnd = m.num
	for m.numEnd < len(s) && isDigit(s[m.numEnd]) {
		m.numEnd++
	}
	if n := m.numEnd - m.num; n < 1 || n > 3 {
		return refMatch{}, false
	}
	t := skipSpace(s, m.numEnd)
	switch {
	case t < len(s) && isASCIILetter(s[t]) && (t+1 == len(s) || !isWordByte(s[t+1])):
		m.letter, m.end = t, t+1
	case t > m.numEnd && t < len(s) && isWordByte(s[t]):
		m.letter, m.end = t, t
	case t > m.numEnd || m.numEnd == len(s) || !isWordByte(s[m.numEnd]):
		m.letter, m.end = m.numEnd, m.numEnd
	default:
		return refMatch{}, false
	}
	return m, true
}

// appendCourseRefs appends courseRef's successive non-overlapping matches
// in ASCII s to refs, as FindAllStringSubmatchIndex finds them.
func appendCourseRefs(refs []refMatch, s string) []refMatch {
	for i := 0; i < len(s); {
		if m, ok := courseRefAt(s, i); ok {
			refs = append(refs, m)
			i = m.end
			continue
		}
		i++
	}
	return refs
}

// prereqIntroAt returns the end of prereqIntro's first match in ASCII
// prose, `(?i)\bprerequisites?\b\s*:?\s*`: the word, an optional s, a
// word boundary, and the greedy spaces, colon and spaces after it.
func prereqIntroAt(prose string) (int, bool) {
	const word = "prerequisite"
	for i := 0; i+len(word) <= len(prose); i++ {
		if prose[i]|0x20 != 'p' || (i > 0 && isWordByte(prose[i-1])) || !hasFoldPrefix(prose[i:], word) {
			continue
		}
		j := i + len(word)
		if j < len(prose) && prose[j]|0x20 == 's' {
			j++
		}
		if j < len(prose) && isWordByte(prose[j]) {
			continue
		}
		j = skipSpace(prose, j)
		if j < len(prose) && prose[j] == ':' {
			j = skipSpace(prose, j+1)
		}
		return j, true
	}
	return 0, false
}

// offeringKindAt returns the normalised kind group of offeringPhrase's
// first match in ASCII prose,
// `(?i)(?:usually\s+)?offered\s+every\s+(semester|year|fall|spring|second\s+year)`.
// The optional "usually" only moves where a match starts, never which
// "offered" it uses, so the first "offered" that the rest of the phrase
// follows decides the kind; the alternatives are tried in order.
func offeringKindAt(prose string) (string, bool) {
	for i := 0; i < len(prose); i++ {
		if prose[i]|0x20 != 'o' || !hasFoldPrefix(prose[i:], "offered") {
			continue
		}
		j := skipSpace(prose, i+len("offered"))
		if j == i+len("offered") || !hasFoldPrefix(prose[j:], "every") {
			continue
		}
		k := skipSpace(prose, j+len("every"))
		if k == j+len("every") {
			continue
		}
		rest := prose[k:]
		for _, kind := range [...]string{"semester", "year", "fall", "spring"} {
			if hasFoldPrefix(rest, kind) {
				return kind, true
			}
		}
		if hasFoldPrefix(rest, "second") {
			if l := skipSpace(rest, len("second")); l > len("second") && hasFoldPrefix(rest[l:], "year") {
				return "second year", true
			}
		}
	}
	return "", false
}
