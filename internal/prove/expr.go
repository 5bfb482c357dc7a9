package prove

import (
	"fmt"
	"sort"
	"strings"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// subst returns e with every variable reference in sigma replaced by its
// image, in one simultaneous pass. Expressions are never mutated; shared
// subtrees are reused when unchanged.
func subst(e gcl.Expr, sigma map[string]gcl.Expr) gcl.Expr {
	if len(sigma) == 0 {
		return e
	}
	switch n := e.(type) {
	case *gcl.BoolLit, *gcl.IntLit:
		return e
	case *gcl.Ref:
		if img, ok := sigma[n.Name]; ok {
			return img
		}
		return e
	case *gcl.Unary:
		x := subst(n.X, sigma)
		if x == n.X {
			return e
		}
		return &gcl.Unary{Op: n.Op, X: x, At: n.At}
	case *gcl.Binary:
		l, r := subst(n.L, sigma), subst(n.R, sigma)
		if l == n.L && r == n.R {
			return e
		}
		return &gcl.Binary{Op: n.Op, L: l, R: r, At: n.At}
	}
	return e
}

// wp builds the substitution of an action's simultaneous assignment. For a
// deterministic target x := e the substitution maps x to e; for the
// wildcard x := ? it maps x to a fresh universally-quantified variable
// with x's domain ("x'", "x”", ...), registered in extra. Proving
// validity of the obligation with the fresh variable free is exactly the
// ∀-quantified weakest precondition over the finite domain.
func (sys *System) wp(a *gcl.ActionDecl, extra map[string]*VarDom) map[string]gcl.Expr {
	sigma := map[string]gcl.Expr{}
	for _, as := range a.Assigns {
		if as.Expr != nil {
			sigma[as.Var] = as.Expr
			continue
		}
		sys.fresh++
		base := sys.vars[as.Var]
		name := fmt.Sprintf("%s'%d", as.Var, sys.fresh)
		extra[name] = &VarDom{Name: name, Bool: base.Bool, Lo: base.Lo, Hi: base.Hi, Enum: base.Enum}
		sigma[as.Var] = &gcl.Ref{Name: name, At: as.At}
	}
	return sigma
}

// nnf converts an inlined boolean expression to negation normal form:
// IMPLIES eliminated, NOT pushed onto atoms (comparison operators are
// flipped, so negation survives only on boolean variable references).
func nnf(e gcl.Expr, neg bool) gcl.Expr {
	switch n := e.(type) {
	case *gcl.BoolLit:
		return &gcl.BoolLit{Value: n.Value != neg, At: n.At}
	case *gcl.Ref:
		if neg {
			return &gcl.Unary{Op: gcl.NOT, X: n, At: n.At}
		}
		return n
	case *gcl.Unary:
		if n.Op == gcl.NOT {
			return nnf(n.X, !neg)
		}
		return n // unary minus below an atom; unreachable at boolean level
	case *gcl.Binary:
		switch n.Op {
		case gcl.AND:
			op := gcl.AND
			if neg {
				op = gcl.OR
			}
			return &gcl.Binary{Op: op, L: nnf(n.L, neg), R: nnf(n.R, neg), At: n.At}
		case gcl.OR:
			op := gcl.OR
			if neg {
				op = gcl.AND
			}
			return &gcl.Binary{Op: op, L: nnf(n.L, neg), R: nnf(n.R, neg), At: n.At}
		case gcl.IMPLIES:
			// a => b  ==  !a | b
			if neg {
				return &gcl.Binary{Op: gcl.AND, L: nnf(n.L, false), R: nnf(n.R, true), At: n.At}
			}
			return &gcl.Binary{Op: gcl.OR, L: nnf(n.L, true), R: nnf(n.R, false), At: n.At}
		case gcl.EQ, gcl.NEQ, gcl.LT, gcl.LE, gcl.GT, gcl.GE:
			if !neg {
				return n
			}
			return &gcl.Binary{Op: flipCmp(n.Op), L: n.L, R: n.R, At: n.At}
		}
		return n
	}
	return e
}

func flipCmp(op gcl.Kind) gcl.Kind {
	switch op {
	case gcl.EQ:
		return gcl.NEQ
	case gcl.NEQ:
		return gcl.EQ
	case gcl.LT:
		return gcl.GE
	case gcl.LE:
		return gcl.GT
	case gcl.GT:
		return gcl.LE
	case gcl.GE:
		return gcl.LT
	}
	return op
}

// freeVars collects the variable names an inlined expression references.
func freeVars(e gcl.Expr, set map[string]bool) {
	switch n := e.(type) {
	case *gcl.Ref:
		set[n.Name] = true
	case *gcl.Unary:
		freeVars(n.X, set)
	case *gcl.Binary:
		freeVars(n.L, set)
		freeVars(n.R, set)
	}
}

func sortedVars(e gcl.Expr) []string {
	set := map[string]bool{}
	freeVars(e, set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compileExpr resolves an inlined expression into a function of a total
// assignment held in a value vector (booleans are 0/1, enum values their
// index, range values source-level), slots giving each free variable's
// index in it, so enumeration leaves evaluate without name lookups. The
// boolean connectives short-circuit, which no total, side-effect-free
// operand can observe.
func compileExpr(e gcl.Expr, slots map[string]int) func([]int) int {
	switch n := e.(type) {
	case *gcl.BoolLit:
		v := 0
		if n.Value {
			v = 1
		}
		return func([]int) int { return v }
	case *gcl.IntLit:
		v := n.Value
		return func([]int) int { return v }
	case *gcl.Ref:
		i := slots[n.Name]
		return func(vals []int) int { return vals[i] }
	case *gcl.Unary:
		x := compileExpr(n.X, slots)
		if n.Op == gcl.NOT {
			return func(vals []int) int { return 1 - x(vals) }
		}
		return func(vals []int) int { return -x(vals) }
	case *gcl.Binary:
		l, r := compileExpr(n.L, slots), compileExpr(n.R, slots)
		switch n.Op {
		case gcl.AND:
			return func(vals []int) int { return b2i(l(vals) != 0 && r(vals) != 0) }
		case gcl.OR:
			return func(vals []int) int { return b2i(l(vals) != 0 || r(vals) != 0) }
		case gcl.IMPLIES:
			return func(vals []int) int { return b2i(l(vals) == 0 || r(vals) != 0) }
		case gcl.EQ:
			return func(vals []int) int { return b2i(l(vals) == r(vals)) }
		case gcl.NEQ:
			return func(vals []int) int { return b2i(l(vals) != r(vals)) }
		}
		op := n.Op
		return func(vals []int) int { return absdom.EvalBinary(op, l(vals), r(vals)) }
	}
	return func([]int) int { return 0 }
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// exprSize is the node count of an expression: the cost, in the meter's
// units, of evaluating it once.
func exprSize(e gcl.Expr) int {
	switch n := e.(type) {
	case *gcl.Unary:
		return 1 + exprSize(n.X)
	case *gcl.Binary:
		return 1 + exprSize(n.L) + exprSize(n.R)
	}
	return 1
}

// exprString renders an inlined expression in GCL syntax (fully
// parenthesized below the top level, which is good enough for reports).
func exprString(e gcl.Expr) string {
	switch n := e.(type) {
	case *gcl.BoolLit:
		return fmt.Sprintf("%v", n.Value)
	case *gcl.IntLit:
		return fmt.Sprintf("%d", n.Value)
	case *gcl.Ref:
		return n.Name
	case *gcl.Unary:
		if n.Op == gcl.NOT {
			return "!" + exprString(n.X)
		}
		return "-" + exprString(n.X)
	case *gcl.Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(n.L), opString(n.Op), exprString(n.R))
	}
	return "?"
}

func opString(op gcl.Kind) string {
	for _, p := range [...]struct {
		k gcl.Kind
		s string
	}{
		{gcl.AND, "&"}, {gcl.OR, "|"}, {gcl.IMPLIES, "=>"},
		{gcl.EQ, "=="}, {gcl.NEQ, "!="}, {gcl.LT, "<"}, {gcl.LE, "<="},
		{gcl.GT, ">"}, {gcl.GE, ">="}, {gcl.PLUS, "+"}, {gcl.MINUS, "-"},
		{gcl.STAR, "*"}, {gcl.PERCENT, "%"},
	} {
		if p.k == op {
			return p.s
		}
	}
	return strings.TrimSpace(fmt.Sprintf("%v", op))
}

// conj builds the conjunction of non-nil expressions.
func conj(exprs ...gcl.Expr) gcl.Expr {
	var out gcl.Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		out = &gcl.Binary{Op: gcl.AND, L: out, R: e}
	}
	if out == nil {
		return &gcl.BoolLit{Value: true}
	}
	return out
}

// disj builds the disjunction of non-nil expressions (false when empty).
func disj(exprs ...gcl.Expr) gcl.Expr {
	var out gcl.Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		out = &gcl.Binary{Op: gcl.OR, L: out, R: e}
	}
	if out == nil {
		return &gcl.BoolLit{Value: false}
	}
	return out
}

// neg negates an expression (the refutation entry point normalizes via
// nnf, so a plain NOT wrapper suffices here).
func neg(e gcl.Expr) gcl.Expr { return &gcl.Unary{Op: gcl.NOT, X: e} }
