package expr

import (
	"fmt"

	"repro/internal/bitset"
)

// MaxClauses bounds the number of DNF clauses Compile will produce before
// giving up. Real prerequisite conditions are tiny (the Brandeis catalog's
// largest has 4 clauses); the bound exists so a pathological registrar
// entry fails loudly instead of exhausting memory.
const MaxClauses = 4096

// Compiled is a prerequisite condition in disjunctive normal form over
// dense course indexes: it is satisfied by a completed set X iff some
// clause is a subset of X. This turns the Q(X) test in Algorithm 1's inner
// loop into a few word-parallel subset checks.
type Compiled struct {
	clauses []bitset.Set
	always  bool
}

// Compile converts e to DNF, mapping course IDs to dense indexes via index
// (which must return an error for unknown IDs). Redundant clauses (supersets
// of other clauses) are pruned, so satisfaction checks touch a minimal
// clause list.
func Compile(e Expr, n int, index func(string) (int, error)) (Compiled, error) {
	clauses, always, err := toDNF(e, n, index)
	if err != nil {
		return Compiled{}, err
	}
	if always {
		return Compiled{always: true}, nil
	}
	return Compiled{clauses: pruneSupersets(clauses)}, nil
}

// MustCompile is Compile but panics on error.
func MustCompile(e Expr, n int, index func(string) (int, error)) Compiled {
	c, err := Compile(e, n, index)
	if err != nil {
		panic(err)
	}
	return c
}

// toDNF returns the clause list for e, or always=true when e is a
// tautology.
func toDNF(e Expr, n int, index func(string) (int, error)) (clauses []bitset.Set, always bool, err error) {
	switch t := e.(type) {
	case True:
		return nil, true, nil
	case Course:
		i, err := index(t.ID)
		if err != nil {
			return nil, false, err
		}
		return []bitset.Set{bitset.FromMembers(n, i)}, false, nil
	case Or:
		var all []bitset.Set
		for _, sub := range t.Terms {
			cs, alw, err := toDNF(sub, n, index)
			if err != nil {
				return nil, false, err
			}
			if alw {
				return nil, true, nil
			}
			all = append(all, cs...)
			if len(all) > MaxClauses {
				return nil, false, fmt.Errorf("expr: DNF exceeds %d clauses", MaxClauses)
			}
		}
		return all, false, nil
	case And:
		// Cross-product of the children's clause lists.
		acc := []bitset.Set{bitset.New(n)}
		for _, sub := range t.Terms {
			cs, alw, err := toDNF(sub, n, index)
			if err != nil {
				return nil, false, err
			}
			if alw {
				continue
			}
			next := make([]bitset.Set, 0, len(acc)*len(cs))
			for _, a := range acc {
				for _, c := range cs {
					next = append(next, a.Union(c))
				}
			}
			if len(next) > MaxClauses {
				return nil, false, fmt.Errorf("expr: DNF exceeds %d clauses", MaxClauses)
			}
			acc = next
		}
		if len(acc) == 1 && acc[0].Empty() {
			return nil, true, nil
		}
		return acc, false, nil
	default:
		return nil, false, fmt.Errorf("expr: unknown node type %T", e)
	}
}

// pruneSupersets removes clauses that are supersets of another clause
// (satisfying the subset clause always satisfies the expression) and
// duplicate clauses.
func pruneSupersets(clauses []bitset.Set) []bitset.Set {
	if len(clauses) < 2 {
		return clauses
	}
	out := make([]bitset.Set, 0, len(clauses))
	for i, c := range clauses {
		redundant := false
		for j, d := range clauses {
			if i == j {
				continue
			}
			if d.SubsetOf(c) && (!c.SubsetOf(d) || j < i) {
				// d is a strict subset, or an equal clause earlier in the
				// list; either way c is redundant.
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return out
}

// Always reports whether the condition is a tautology (no prerequisite).
func (c Compiled) Always() bool { return c.always }

// Satisfied reports whether completed set x satisfies the condition.
func (c Compiled) Satisfied(x bitset.Set) bool {
	if c.always {
		return true
	}
	for _, cl := range c.clauses {
		if cl.SubsetOf(x) {
			return true
		}
	}
	return false
}

// NumClauses returns the number of DNF clauses (0 for tautologies).
func (c Compiled) NumClauses() int { return len(c.clauses) }

// Clauses returns copies of the DNF clauses. A satisfied clause is a set of
// courses whose completion satisfies the condition.
func (c Compiled) Clauses() []bitset.Set {
	out := make([]bitset.Set, len(c.clauses))
	for i, cl := range c.clauses {
		out[i] = cl.Clone()
	}
	return out
}

// MinAdditional returns the minimum number of further courses that must be
// completed, beyond x, to satisfy the condition: the smallest |clause − x|
// over all clauses. It returns 0 when x already satisfies the condition and
// -1 when the condition is unsatisfiable (a zero Compiled). This is the
// left-hand quantity the time-based pruning strategy needs for
// set-completion goals.
func (c Compiled) MinAdditional(x bitset.Set) int {
	if c.always {
		return 0
	}
	best := -1
	for _, cl := range c.clauses {
		missing := cl.Diff(x).Len()
		if best < 0 || missing < best {
			best = missing
		}
	}
	return best
}

// Union returns the set of all courses appearing in any clause.
func (c Compiled) Union() bitset.Set {
	var u bitset.Set
	for _, cl := range c.clauses {
		u.UnionInPlace(cl)
	}
	return u
}
