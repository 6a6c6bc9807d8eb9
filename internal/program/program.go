// Package program implements the paper's program language (§2.2): finite
// sequences of project, join, and semijoin statements over relation
// variables and input relation schemes, with destructive assignment, plus
// one n-ary statement the paper does not have — the multiway join, evaluated
// by Leapfrog Triejoin (internal/wcoj). It provides static validation of the
// paper's well-formedness rules, an executor that runs the statements in
// textual order with the §2.3 cost accounting — workers parallelize only
// inside a statement's kernel — and a printer matching the paper's notation.
package program

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Op is the statement operator.
type Op uint8

const (
	// OpProject is "R(R) := π_U R(S)".
	OpProject Op = iota
	// OpJoin is "R(R) := R(S) ⋈ R(T)".
	OpJoin
	// OpSemijoin is "R(R) := R(R) ⋉ R(S)".
	OpSemijoin
	// OpMultiway is "R(R) := ⋈_order {R(S1), …, R(Sk)}": the natural join of
	// k operands computed attribute by attribute along a variable order, with
	// no pairwise intermediate.
	OpMultiway
)

// String returns the operator's symbol.
func (op Op) String() string {
	switch op {
	case OpProject:
		return "π"
	case OpJoin:
		return "⋈"
	case OpSemijoin:
		return "⋉"
	case OpMultiway:
		return "⋈_"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Stmt is one statement. Head receives the result. For OpProject, Arg1 is
// the source and Proj the projection attributes (Arg2 unused). For OpJoin,
// Arg1 and Arg2 are the operands. For OpSemijoin, the paper requires
// Head == Arg1; Arg2 is the reducer. For OpMultiway, Args are the operands
// and Order the variable order — a permutation of the operands' attributes,
// which is also the head's column order (Arg1, Arg2 and Proj unused).
type Stmt struct {
	Op    Op
	Head  string
	Arg1  string
	Arg2  string
	Proj  relation.AttrSet
	Args  []string
	Order []string
}

// Reads returns the names the statement reads, in operand order.
func (s Stmt) Reads() []string {
	switch s.Op {
	case OpProject:
		return []string{s.Arg1}
	case OpMultiway:
		return s.Args
	default:
		return []string{s.Arg1, s.Arg2}
	}
}

// String renders the statement in the paper's notation, e.g.
// "R(V) := R(V) ⋉ R(CDE)" or "R(W) := ⋈_ABC {R(AB), R(BC), R(CA)}".
// Projection attributes and variable orders print compactly ("CE") only when
// that form re-parses (single letter-or-digit names); otherwise they print
// braced ("{city,year}").
func (s Stmt) String() string {
	switch s.Op {
	case OpMultiway:
		refs := make([]string, len(s.Args))
		for i, a := range s.Args {
			refs[i] = "R(" + a + ")"
		}
		return fmt.Sprintf("R(%s) := ⋈_%s {%s}", s.Head, formatAttrs(s.Order), strings.Join(refs, ", "))
	case OpProject:
		return fmt.Sprintf("R(%s) := π_%s R(%s)", s.Head, formatAttrs(s.Proj), s.Arg1)
	case OpJoin:
		return fmt.Sprintf("R(%s) := R(%s) ⋈ R(%s)", s.Head, s.Arg1, s.Arg2)
	case OpSemijoin:
		return fmt.Sprintf("R(%s) := R(%s) ⋉ R(%s)", s.Head, s.Arg1, s.Arg2)
	default:
		return fmt.Sprintf("R(%s) := ?%d", s.Head, s.Op)
	}
}

// formatAttrs renders an attribute list — a projection set or a variable
// order — so that parseNames reads it back identically: compact when every
// attribute is a single letter or digit, braced otherwise.
func formatAttrs(attrs []string) string {
	compact := len(attrs) > 0
	for _, a := range attrs {
		runes := []rune(a)
		if len(runes) != 1 || (!unicode.IsLetter(runes[0]) && !unicode.IsDigit(runes[0])) {
			compact = false
			break
		}
	}
	if compact {
		return strings.Join(attrs, "")
	}
	return "{" + strings.Join(attrs, ",") + "}"
}

// Program is a program over a database scheme: named inputs (one per
// relation scheme occurrence, bound by position to the database's
// relations), statements, and the name holding the result after execution.
type Program struct {
	// Inputs names the n input relations; Inputs[i] binds to relation i of
	// the database the program is applied to.
	Inputs []string
	// Stmts are executed in order with destructive assignment.
	Stmts []Stmt
	// Output names the relation holding ⋈D after execution. For the empty
	// program over a single relation it is that input's name.
	Output string
}

// Validate checks the paper's §2.2 well-formedness rules:
//   - input names are distinct and nonempty;
//   - the head of a join, multiway or project statement is a variable (not
//     an input);
//   - the head of a semijoin statement equals its first operand (the §2.2
//     form) or is a variable, which the statement then defines — the
//     generalized form the paper itself uses in Example 6, where the head
//     aliases the first operand;
//   - every variable used in a body was defined earlier by a join or project
//     statement (inputs may be used at any time);
//   - a multiway statement has at least one operand and a variable order
//     naming no attribute twice (that the order covers exactly the operands'
//     attributes is checked when their schemas are known, at execution);
//   - the output name is an input or a defined variable.
func (p *Program) Validate() error {
	inputs := make(map[string]bool, len(p.Inputs))
	for i, in := range p.Inputs {
		if in == "" {
			return fmt.Errorf("program: input %d has empty name", i)
		}
		if inputs[in] {
			return fmt.Errorf("program: duplicate input name %q", in)
		}
		inputs[in] = true
	}
	defined := make(map[string]bool) // variables defined by join/project so far
	available := func(name string) bool { return inputs[name] || defined[name] }

	for i, s := range p.Stmts {
		where := fmt.Sprintf("program: statement %d (%s)", i+1, s)
		if s.Op > OpMultiway {
			return fmt.Errorf("%s: unknown operator", where)
		}
		for _, name := range s.Reads() {
			if !available(name) {
				return fmt.Errorf("%s: operand %q not defined", where, name)
			}
		}
		switch s.Op {
		case OpProject, OpJoin, OpMultiway:
			if s.Head == "" || inputs[s.Head] {
				return fmt.Errorf("%s: head %q must be a relation scheme variable, not an input", where, s.Head)
			}
			defined[s.Head] = true
		case OpSemijoin:
			if s.Head != s.Arg1 {
				// Generalized form "R(V) := R(S) ⋉ R(T)": the paper writes
				// its derived programs this way (Example 6's first statement
				// is R(V) := R(ABC) ⋉ R(CDE)), treating V as an alias of the
				// first operand. The head must then be a variable it
				// (re)defines.
				if s.Head == "" || inputs[s.Head] {
					return fmt.Errorf("%s: semijoin head must equal its first operand or be a variable", where)
				}
				defined[s.Head] = true
			}
		}
		if s.Op == OpMultiway {
			if len(s.Args) == 0 {
				return fmt.Errorf("%s: multiway join has no operands", where)
			}
			if slices.Contains(s.Order, "") || len(relation.NewAttrSet(s.Order...)) != len(s.Order) {
				return fmt.Errorf("%s: variable order %v names an attribute twice or an empty one", where, s.Order)
			}
		}
	}
	if p.Output == "" || !available(p.Output) {
		return fmt.Errorf("program: output %q is not an input or defined variable", p.Output)
	}
	return nil
}

// Step records the effect of one executed statement.
type Step struct {
	// Stmt is the executed statement.
	Stmt Stmt
	// Schema is the head's schema after the assignment.
	Schema *relation.Schema
	// Size is the head's cardinality after the assignment — the statement's
	// contribution to the paper's cost.
	Size int
	// Wall is the statement's execution wall-clock time. Statements run one
	// after another, so the steps' Walls never overlap and sum to at most
	// the program's elapsed time.
	Wall time.Duration
	// Notes carries the statement's own accounting for a report: a multiway
	// join's trie counts (wcoj.Result.Notes); nil for the other operators.
	Notes []string
}

// Result is the outcome of applying a program to a database.
type Result struct {
	// Output is the relation named by the program's Output after execution.
	Output *relation.Relation
	// Cost is the paper's cost(P(D)): Σ|R_i| over the n inputs plus the head
	// cardinality of each executed statement.
	Cost int
	// Trace records every executed statement in order.
	Trace []Step
}

// beginStmtSpan opens a tracing span for one statement when the governor
// carries a span (govern.Governor.SetSpan), returning the zero value — and
// formatting nothing — when untraced. A binary or project statement's span is
// charged with the head cardinality, which is exactly what its relation
// operator charges the governor; a multiway statement's charges sit on the
// trie and enumeration spans below it. Either way span totals reconcile with
// Governor.Produced.
type stmtSpan struct{ sp *obs.Span }

func beginStmtSpan(g *govern.Governor, s Stmt) stmtSpan {
	parent := g.Span()
	if parent == nil {
		return stmtSpan{}
	}
	return stmtSpan{sp: parent.Child(obs.KindStmt, s.String())}
}

// finish closes the span charging it produced tuples, or with the failure
// when err is non-nil.
func (t stmtSpan) finish(produced int, err error) {
	if t.sp == nil {
		return
	}
	if err != nil {
		t.sp.Note("failed: %v", err)
	} else {
		t.sp.AddTuples(int64(produced))
	}
	t.sp.End()
}

// FreshVar returns the first of prefix1, prefix2, … that is neither an input
// name nor a statement head of p: a variable a program builder can assign
// without clobbering anything it already wrote.
func (p *Program) FreshVar(prefix string) string {
	used := make(map[string]bool, len(p.Inputs)+len(p.Stmts))
	for _, name := range p.Inputs {
		used[name] = true
	}
	for _, s := range p.Stmts {
		used[s.Head] = true
	}
	for k := 1; ; k++ {
		if name := prefix + strconv.Itoa(k); !used[name] {
			return name
		}
	}
}

// Len returns the number of statements (m in the paper's cost definition).
func (p *Program) Len() int { return len(p.Stmts) }

// OpCounts returns the number of statements per operator, in the order
// (projections, joins, semijoins); a multiway join counts as a join.
func (p *Program) OpCounts() (projects, joins, semijoins int) {
	for _, s := range p.Stmts {
		switch s.Op {
		case OpProject:
			projects++
		case OpJoin, OpMultiway:
			joins++
		case OpSemijoin:
			semijoins++
		}
	}
	return projects, joins, semijoins
}

// String renders the program one statement per line, in the paper's
// notation.
func (p *Program) String() string {
	if len(p.Stmts) == 0 {
		return fmt.Sprintf("(empty program; output %s)", p.Output)
	}
	lines := make([]string, len(p.Stmts))
	for i, s := range p.Stmts {
		lines[i] = s.String()
	}
	return strings.Join(lines, "\n")
}
