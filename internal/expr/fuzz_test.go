package expr

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse checks that the prerequisite-expression parser never panics,
// that accepted inputs round-trip (rendering and re-parsing is a
// fixpoint after one iteration), and that every rejection is a
// *ParseError whose offset lands inside the input.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"COSI 11A",
		"COSI 11A and COSI 29A",
		"a or (b and c)",
		`"weird (name)" and x1`,
		"A1, B2; C3 | D4 & E5",
		"true",
		"(((",
		"and and",
		"a1 or",
		"\"unterminated",
		"🎓 101",
		"é )",
		"COSI 11A) trailing",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := Parse(input)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection of %q is %T, not *ParseError", input, err)
			}
			if pe.Offset < 0 || pe.Offset > len(input) {
				t.Fatalf("offset %d outside input %q (len %d)", pe.Offset, input, len(input))
			}
			return // rejection is fine; panics are not
		}
		rendered := e.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form %q of %q does not re-parse: %v", rendered, input, err)
		}
		if again := back.String(); again != rendered {
			t.Fatalf("String not a fixpoint: %q → %q", rendered, again)
		}
	})
}

// refLex is lex as written before it sliced tokens out of the input:
// the input decoded to runes, offsets kept in a side table, every token
// text built from runes. FuzzLexMatchesRuneLexer holds lex to it.
func refLex(input string) []token {
	var toks []token
	i := 0
	rs := []rune(input)
	byteOff := make([]int, len(rs)+1)
	j := 0
	for i := range input {
		byteOff[j] = i
		j++
	}
	byteOff[len(rs)] = len(input)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, token{kind: tokLParen, text: "(", pos: byteOff[i]})
			i++
		case r == ')':
			toks = append(toks, token{kind: tokRParen, text: ")", pos: byteOff[i]})
			i++
		case r == ',' || r == '&' || r == ';':
			toks = append(toks, token{kind: tokAnd, text: string(r), pos: byteOff[i]})
			i++
		case r == '|':
			toks = append(toks, token{kind: tokOr, text: "|", pos: byteOff[i]})
			i++
		case r == '"':
			j := i + 1
			for j < len(rs) && rs[j] != '"' {
				j++
			}
			toks = append(toks, token{kind: tokCourse, text: string(rs[i+1 : min(j, len(rs))]), quoted: true, pos: byteOff[i]})
			if j < len(rs) {
				j++
			}
			i = j
		default:
			j := i
			for j < len(rs) && isWordRune(rs[j]) {
				j++
			}
			if j == i {
				j = i + 1
			}
			word := string(rs[i:j])
			switch strings.ToLower(word) {
			case "and":
				toks = append(toks, token{kind: tokAnd, text: word, pos: byteOff[i]})
			case "or":
				toks = append(toks, token{kind: tokOr, text: word, pos: byteOff[i]})
			case "true", "none":
				toks = append(toks, token{kind: tokTrue, text: word, pos: byteOff[i]})
			default:
				toks = append(toks, token{kind: tokCourse, text: word, pos: byteOff[i]})
			}
			i = j
		}
	}
	return toks
}

// FuzzLexMatchesRuneLexer is the differential contract of the lexer:
// every input, valid UTF-8 or not, lexes to refLex's tokens.
func FuzzLexMatchesRuneLexer(f *testing.F) {
	for _, seed := range []string{
		`"COSI 11A" and ("COSI 29A" or “MATH 8A”)`,
		"AND Or oR tRuE NONE ſand anK K",
		"a\xffb \xff\"x\xfe\" é ) 🎓 101",
		"\"unterminated \xc3",
		" COSI  11A;B|C&D,E",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, want := lex(input), refLex(input)
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lex(%q) = %+v, reference %+v", input, got, want)
		}
	})
}
