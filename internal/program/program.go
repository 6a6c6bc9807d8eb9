// Package program implements the paper's program language (§2.2): finite
// sequences of project, join, and semijoin statements over relation
// variables and input relation schemes, with destructive assignment. It
// provides static validation of the paper's well-formedness rules, an
// interpreter with the §2.3 cost accounting, and a printer matching the
// paper's notation.
package program

import (
	"fmt"
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
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Stmt is one statement. Head receives the result. For OpProject, Arg1 is
// the source and Proj the projection attributes (Arg2 unused). For OpJoin,
// Arg1 and Arg2 are the operands. For OpSemijoin, the paper requires
// Head == Arg1; Arg2 is the reducer.
type Stmt struct {
	Op   Op
	Head string
	Arg1 string
	Arg2 string
	Proj relation.AttrSet
}

// String renders the statement in the paper's notation, e.g.
// "R(V) := R(V) ⋉ R(CDE)". Projection attributes print compactly ("CE")
// only when that form re-parses (single letter-or-digit names); otherwise
// they print braced ("{city,year}").
func (s Stmt) String() string {
	switch s.Op {
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

// formatAttrs renders a projection attribute set so that parseAttrs reads
// it back identically: compact when every attribute is a single letter or
// digit, braced otherwise.
func formatAttrs(attrs relation.AttrSet) string {
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
//   - the head of a join or project statement is a variable (not an input);
//   - the head of a semijoin statement equals its first operand (the §2.2
//     form) or is a variable, which the statement then defines — the
//     generalized form the paper itself uses in Example 6, where the head
//     aliases the first operand;
//   - every variable used in a body was defined earlier by a join or project
//     statement (inputs may be used at any time);
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
		switch s.Op {
		case OpProject:
			if s.Head == "" || inputs[s.Head] {
				return fmt.Errorf("%s: project head must be a relation scheme variable", where)
			}
			if !available(s.Arg1) {
				return fmt.Errorf("%s: source %q not defined", where, s.Arg1)
			}
			defined[s.Head] = true
		case OpJoin:
			if s.Head == "" || inputs[s.Head] {
				return fmt.Errorf("%s: join head must be a relation scheme variable", where)
			}
			if !available(s.Arg1) || !available(s.Arg2) {
				return fmt.Errorf("%s: operand not defined", where)
			}
			defined[s.Head] = true
		case OpSemijoin:
			if !available(s.Arg1) || !available(s.Arg2) {
				return fmt.Errorf("%s: operand not defined", where)
			}
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
		default:
			return fmt.Errorf("%s: unknown operator", where)
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
	// Wall is the statement's execution wall-clock time. Under the parallel
	// executor concurrent statements overlap, so the steps' Walls sum to more
	// than the program's elapsed time.
	Wall time.Duration
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
// formatting nothing — when untraced. The span is charged with the head
// cardinality, which is exactly what the statement's relation operator
// charges the governor, so span totals reconcile with Governor.Produced.
type stmtSpan struct{ sp *obs.Span }

func beginStmtSpan(g *govern.Governor, s Stmt) stmtSpan {
	parent := g.Span()
	if parent == nil {
		return stmtSpan{}
	}
	return stmtSpan{sp: parent.Child(obs.KindStmt, s.String())}
}

// finish closes the span with the statement's head cardinality, or the
// failure when err is non-nil.
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
// (projections, joins, semijoins).
func (p *Program) OpCounts() (projects, joins, semijoins int) {
	for _, s := range p.Stmts {
		switch s.Op {
		case OpProject:
			projects++
		case OpJoin:
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
