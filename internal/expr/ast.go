// Package expr implements the prerequisite condition language of
// CourseNavigator.
//
// The paper (§2) defines each course's prerequisite condition Q as a boolean
// expression over "course completed" variables:
//
//	Q = (x_j ∧ … ∧ x_k) ∨ … ∨ (x_m ∧ … ∧ x_n)
//
// This package provides the expression AST, a parser for the textual form
// the registrar's Prerequisite Parser emits ("COSI 11A and (COSI 29A or
// MATH 8A)"), evaluation against a completed-course set, and compilation to
// disjunctive normal form over dense course indexes so that the exploration
// algorithms can test Q(X) with a handful of bitset operations.
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is a prerequisite expression tree. Leaves are course references;
// internal nodes are conjunctions and disjunctions. The paper's language has
// no negation (a prerequisite never requires *not* having taken a course),
// so none is provided.
type Expr interface {
	// Eval reports whether the expression is satisfied when exactly the
	// courses for which done returns true are completed.
	Eval(done func(courseID string) bool) bool
	// String renders the expression in parseable form.
	String() string
	// walk visits every node. Used by analysis helpers.
	walk(fn func(Expr))
}

// True is the always-satisfied expression, used for courses without
// prerequisites.
type True struct{}

// Eval implements Expr; it is always true.
func (True) Eval(func(string) bool) bool { return true }

// String implements Expr.
func (True) String() string { return "true" }

func (t True) walk(fn func(Expr)) { fn(t) }

// Course is a leaf node: satisfied when the named course is completed.
type Course struct {
	ID string
}

// Eval implements Expr.
func (c Course) Eval(done func(string) bool) bool { return done(c.ID) }

// String implements Expr.
func (c Course) String() string {
	if needsQuote(c.ID) {
		return `"` + c.ID + `"`
	}
	return c.ID
}

// needsQuote reports whether a course ID must be quoted to round-trip
// through Parse. Unquoted IDs are a single word, or the dept + number pair
// the parser's word-merging rule reassembles ("COSI 11A").
func needsQuote(id string) bool {
	if strings.ContainsAny(id, "()\",;&|") || isKeyword(id) {
		return true
	}
	// Unquoted words must consist solely of the lexer's word runes, or
	// they would re-lex as several tokens.
	for _, r := range id {
		if r != ' ' && !isWordRune(r) {
			return true
		}
	}
	words := strings.Fields(id)
	switch len(words) {
	case 1:
		return words[0] != id // leading/trailing space
	case 2:
		// A leading keyword ("And 1") would re-lex as an operator.
		return id != words[0]+" "+words[1] || !isAlpha(words[0]) || isKeyword(words[0]) || !hasDigit(words[1])
	default:
		return true
	}
}

// isKeyword reports whether the lexer reads word as an operator or the
// constant true rather than a course word.
func isKeyword(word string) bool {
	for _, k := range [...]string{"and", "or", "true", "none"} {
		if strings.EqualFold(word, k) {
			return true
		}
	}
	return false
}

func (c Course) walk(fn func(Expr)) { fn(c) }

// And is a conjunction of one or more sub-expressions.
type And struct {
	Terms []Expr
}

// Eval implements Expr.
func (a And) Eval(done func(string) bool) bool {
	for _, t := range a.Terms {
		if !t.Eval(done) {
			return false
		}
	}
	return true
}

// String implements Expr.
func (a And) String() string { return joinExprs(a.Terms, " and ", isOr) }

func (a And) walk(fn func(Expr)) {
	fn(a)
	for _, t := range a.Terms {
		t.walk(fn)
	}
}

// Or is a disjunction of one or more sub-expressions.
type Or struct {
	Terms []Expr
}

// Eval implements Expr.
func (o Or) Eval(done func(string) bool) bool {
	for _, t := range o.Terms {
		if t.Eval(done) {
			return true
		}
	}
	return false
}

// String implements Expr.
func (o Or) String() string { return joinExprs(o.Terms, " or ", never) }

func (o Or) walk(fn func(Expr)) {
	fn(o)
	for _, t := range o.Terms {
		t.walk(fn)
	}
}

func isOr(e Expr) bool { _, ok := e.(Or); return ok }

func never(Expr) bool { return false }

// joinExprs renders sub-expressions separated by sep, parenthesising any
// child for which paren returns true (lower-precedence children).
func joinExprs(terms []Expr, sep string, paren func(Expr) bool) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.String()
		if paren(t) {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// NewAnd builds a conjunction, flattening nested Ands and dropping True
// terms. It returns True for an empty conjunction and the sole term for a
// singleton.
func NewAnd(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		switch tt := t.(type) {
		case True:
			// identity element
		case And:
			flat = append(flat, tt.Terms...)
		default:
			flat = append(flat, t)
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	default:
		return And{Terms: flat}
	}
}

// NewOr builds a disjunction, flattening nested Ors. A True term makes the
// whole disjunction True. It returns True for an empty disjunction (an
// absent prerequisite is vacuously satisfied) and the sole term for a
// singleton.
func NewOr(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		switch tt := t.(type) {
		case True:
			return True{}
		case Or:
			flat = append(flat, tt.Terms...)
		default:
			flat = append(flat, t)
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	default:
		return Or{Terms: flat}
	}
}

// Courses returns the distinct course IDs referenced by e, sorted.
func Courses(e Expr) []string {
	seen := map[string]bool{}
	e.walk(func(n Expr) {
		if c, ok := n.(Course); ok {
			seen[c.ID] = true
		}
	})
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Validate checks that every course referenced by e is known according to
// known, returning an error naming the first unknown reference.
func Validate(e Expr, known func(string) bool) error {
	var bad string
	e.walk(func(n Expr) {
		if c, ok := n.(Course); ok && bad == "" && !known(c.ID) {
			bad = c.ID
		}
	})
	if bad != "" {
		return fmt.Errorf("expr: unknown course %q in prerequisite", bad)
	}
	return nil
}
