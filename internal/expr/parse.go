package expr

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError is the error type returned by Parse. It carries the byte
// offset of the offending token inside the input so callers (notably the
// registrar's Prerequisite Parser) can point users at the exact fragment
// that failed rather than only at the whole sentence.
type ParseError struct {
	// Offset is the byte offset of the offending token in the parsed
	// input; len(input) when the failure is an unexpected end of input.
	Offset int
	// Token is the offending token's text, "" at end of input.
	Token string
	// Msg describes the failure.
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d", e.Msg, e.Offset)
}

// Parse parses the textual prerequisite language:
//
//	expr   := orExpr
//	orExpr := andExpr { ("or" | "|") andExpr }
//	andExpr:= atom { ("and" | "&" | ",") atom }
//	atom   := "(" expr ")" | "true" | "none" | courseRef
//
// Course references are runs of letters, digits and interior spaces between
// a department code and a number ("COSI 11A"), or quoted strings. The comma
// conjunction matches registrar catalog style ("COSI 11a, COSI 29a").
// Keywords are case-insensitive. An empty input parses as True (no
// prerequisite). Failures are reported as *ParseError with the byte offset
// of the offending token.
func Parse(input string) (Expr, error) {
	p := &parser{src: input, toks: lex(input)}
	if len(p.toks) == 0 {
		return True{}, nil
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		t := p.peek()
		return nil, &ParseError{Offset: t.pos, Token: t.text,
			Msg: fmt.Sprintf("unexpected %q after complete expression", t.text)}
	}
	return e, nil
}

// MustParse is Parse but panics on error; for tests and embedded datasets.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokCourse tokKind = iota
	tokAnd
	tokOr
	tokLParen
	tokRParen
	tokTrue
)

type token struct {
	kind   tokKind
	text   string
	quoted bool
	pos    int // byte offset of the token's first rune in the input
}

// lex splits the input into tokens. Course-name words are merged later by
// the parser so that "COSI 11A" lexes as two words but parses as one
// reference. Every token records its byte offset in the input.
func lex(input string) []token {
	toks := make([]token, 0, 8)
	// A token's text is its slice of valid UTF-8 input. Invalid bytes
	// decode to utf8.RuneError, one per byte, and text holding them is
	// spelt with the replacement rune, as a []rune conversion spells it.
	valid := utf8.ValidString(input)
	text := func(i, j int) string {
		if valid {
			return input[i:j]
		}
		return string([]rune(input[i:j]))
	}
	for i := 0; i < len(input); {
		r, size := rune(input[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(input[i:])
		}
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '(':
			toks = append(toks, token{kind: tokLParen, text: "(", pos: i})
			i++
		case r == ')':
			toks = append(toks, token{kind: tokRParen, text: ")", pos: i})
			i++
		case r == ',' || r == '&' || r == ';':
			toks = append(toks, token{kind: tokAnd, text: input[i : i+1], pos: i})
			i++
		case r == '|':
			toks = append(toks, token{kind: tokOr, text: "|", pos: i})
			i++
		case r == '"':
			j := strings.IndexByte(input[i+1:], '"')
			if j < 0 {
				toks = append(toks, token{kind: tokCourse, text: text(i+1, len(input)), quoted: true, pos: i})
				i = len(input)
				break
			}
			toks = append(toks, token{kind: tokCourse, text: text(i+1, i+1+j), quoted: true, pos: i})
			i += j + 2
		default:
			j := i
			for j < len(input) {
				r, size := rune(input[j]), 1
				if r >= utf8.RuneSelf {
					r, size = utf8.DecodeRuneInString(input[j:])
				}
				if !isWordRune(r) {
					break
				}
				j += size
			}
			if j == i { // unknown rune: take it as a single-char word
				j = i + size
			}
			word := text(i, j)
			kind := tokCourse
			switch {
			case strings.EqualFold(word, "and"):
				kind = tokAnd
			case strings.EqualFold(word, "or"):
				kind = tokOr
			case strings.EqualFold(word, "true"), strings.EqualFold(word, "none"):
				kind = tokTrue
			}
			toks = append(toks, token{kind: kind, text: word, pos: i})
			i = j
		}
	}
	return toks
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_' || r == '.' || r == '/'
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) eof() bool   { return p.pos >= len(p.toks) }
func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

// errHere builds a ParseError at the current position: the next unread
// token, or end of input.
func (p *parser) errHere(format string, args ...interface{}) *ParseError {
	e := &ParseError{Offset: len(p.src), Msg: fmt.Sprintf(format, args...)}
	if !p.eof() {
		e.Offset = p.peek().pos
		e.Token = p.peek().text
	}
	return e
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil || p.eof() || p.peek().kind != tokOr {
		// A lone term is what NewOr(left) returns, up to a copy.
		return left, err
	}
	terms := []Expr{left}
	for !p.eof() && p.peek().kind == tokOr {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return NewOr(terms...), nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseAtom()
	if err != nil || p.eof() || p.peek().kind != tokAnd {
		// A lone term is what NewAnd(left) returns, up to a copy.
		return left, err
	}
	terms := []Expr{left}
	for !p.eof() && p.peek().kind == tokAnd {
		p.advance()
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	return NewAnd(terms...), nil
}

func (p *parser) parseAtom() (Expr, error) {
	if p.eof() {
		return nil, p.errHere("unexpected end of expression")
	}
	switch t := p.advance(); t.kind {
	case tokLParen:
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek().kind != tokRParen {
			return nil, p.errHere("missing closing parenthesis")
		}
		p.advance()
		return e, nil
	case tokTrue:
		return True{}, nil
	case tokCourse:
		// Merge consecutive course words into one reference: "COSI 11A"
		// lexes as ["COSI", "11A"]. A department word is all-letters; it is
		// glued to the course-number word that follows. Quoted references
		// are complete and never participate in merging.
		if t.quoted {
			return Course{ID: t.text}, nil
		}
		if !p.eof() && p.peek().kind == tokCourse && !p.peek().quoted && wantsMerge(t.text, p.peek().text) {
			return Course{ID: t.text + " " + p.advance().text}, nil
		}
		return Course{ID: t.text}, nil
	case tokRParen:
		return nil, &ParseError{Offset: t.pos, Token: t.text, Msg: `unexpected ")"`}
	default:
		return nil, &ParseError{Offset: t.pos, Token: t.text, Msg: fmt.Sprintf("unexpected %q", t.text)}
	}
}

// wantsMerge reports whether next should join the course reference that
// begins with word dept. A reference is at most two words: an alphabetic
// department code followed by an alphanumeric course number ("COSI" +
// "11A"). Single-word references ("11A", "CS-101") never merge.
func wantsMerge(dept, next string) bool {
	return isAlpha(dept) && hasDigit(next)
}

func isAlpha(s string) bool {
	for _, r := range s {
		if !unicode.IsLetter(r) {
			return false
		}
	}
	return len(s) > 0
}

func hasDigit(s string) bool {
	for _, r := range s {
		if unicode.IsDigit(r) {
			return true
		}
	}
	return false
}
