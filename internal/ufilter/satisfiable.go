package ufilter

import (
	"repro/internal/relational"
)

// checkConjunctionSatisfiable decides whether a conjunction of
// single-attribute comparison predicates can hold for some value. It is
// the Step-1 overlap test: a user delete whose WHERE contradicts the
// view's check annotations (u5: price > 50 against the view's
// price < 50) can never touch the view and is invalid.
//
// The solver is conservative over a continuous domain: it reports
// unsatisfiable only for definite contradictions (bound crossings and
// equality conflicts), never for gaps that exist only in integer
// domains, so valid updates are never rejected.
func checkConjunctionSatisfiable(preds []relational.CheckPredicate) bool {
	var eqs []relational.Value
	var nes []relational.Value
	var lower relational.Value
	lowerStrict := false
	hasLower := false
	var upper relational.Value
	upperStrict := false
	hasUpper := false

	for _, p := range preds {
		if p.Operand.IsNull() {
			// Comparisons against NULL never hold; the conjunction can
			// only be satisfied by rows where the check is vacuous, so
			// treat as satisfiable (conservative).
			continue
		}
		switch p.Op {
		case relational.OpEQ:
			eqs = append(eqs, p.Operand)
		case relational.OpNE:
			nes = append(nes, p.Operand)
		case relational.OpGT, relational.OpGE:
			strict := p.Op == relational.OpGT
			if !hasLower {
				lower, lowerStrict, hasLower = p.Operand, strict, true
				continue
			}
			c, err := p.Operand.Compare(lower)
			if err != nil {
				continue // incomparable kinds: stay conservative
			}
			if c > 0 || (c == 0 && strict) {
				lower, lowerStrict = p.Operand, strict
			}
		case relational.OpLT, relational.OpLE:
			strict := p.Op == relational.OpLT
			if !hasUpper {
				upper, upperStrict, hasUpper = p.Operand, strict, true
				continue
			}
			c, err := p.Operand.Compare(upper)
			if err != nil {
				continue
			}
			if c < 0 || (c == 0 && strict) {
				upper, upperStrict = p.Operand, strict
			}
		}
	}

	// Multiple distinct equalities contradict.
	for i := 1; i < len(eqs); i++ {
		if !eqs[0].Equal(eqs[i]) {
			if _, err := eqs[0].Compare(eqs[i]); err == nil {
				return false
			}
		}
	}
	// A pinned value must satisfy every other constraint.
	if len(eqs) > 0 {
		v := eqs[0]
		for _, ne := range nes {
			if v.Equal(ne) {
				return false
			}
		}
		if hasLower {
			if c, err := v.Compare(lower); err == nil {
				if c < 0 || (c == 0 && lowerStrict) {
					return false
				}
			}
		}
		if hasUpper {
			if c, err := v.Compare(upper); err == nil {
				if c > 0 || (c == 0 && upperStrict) {
					return false
				}
			}
		}
		return true
	}
	// Bound crossing.
	if hasLower && hasUpper {
		c, err := lower.Compare(upper)
		if err == nil {
			if c > 0 {
				return false
			}
			if c == 0 && (lowerStrict || upperStrict) {
				return false
			}
			// Forced single point excluded by a disequality.
			if c == 0 {
				for _, ne := range nes {
					if ne.Equal(lower) {
						return false
					}
				}
			}
		}
	}
	return true
}
