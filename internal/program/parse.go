package program

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/relation"
)

// Parse reads a program in the paper's notation, one statement per line,
// e.g.
//
//	R(V) := R(ABC) ⋉ R(CDE)
//	R(F) := π_C R(V)
//	R(F) := R(F) ⋈ R(CDE)
//
// A multiway join lists its variable order after "⋈_" and its operands in
// braces: "R(W) := ⋈_ABC {R(AB), R(BC), R(CA)}". Blank lines and lines
// starting with "#" or "--" are ignored. ASCII spellings are accepted:
// "|><|" for ⋈ (so "|><|_ABC {…}" for a multiway join), "<|" for ⋉, "pi_"
// for π_.
// inputs names the program's input relations (bound by position when the
// program is applied); output names the result relation — when empty, the
// head of the last statement is used. The parsed program is validated
// before being returned.
func Parse(text string, inputs []string, output string) (*Program, error) {
	p := &Program{Inputs: append([]string(nil), inputs...), Output: output}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--") {
			continue
		}
		stmt, err := parseStmt(line)
		if err != nil {
			return nil, fmt.Errorf("program: line %d: %v", lineNo+1, err)
		}
		p.Stmts = append(p.Stmts, stmt)
	}
	if p.Output == "" {
		if len(p.Stmts) == 0 {
			return nil, fmt.Errorf("program: empty program needs an explicit output")
		}
		p.Output = p.Stmts[len(p.Stmts)-1].Head
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseStmt parses one statement line.
func parseStmt(line string) (Stmt, error) {
	// Normalize ASCII operator spellings.
	line = strings.ReplaceAll(line, "|><|", "⋈")
	line = strings.ReplaceAll(line, "<|", "⋉")
	line = strings.ReplaceAll(line, "pi_", "π_")

	head, body, ok := strings.Cut(line, ":=")
	if !ok {
		return Stmt{}, fmt.Errorf("missing := in %q", line)
	}
	headName, err := parseRef(strings.TrimSpace(head))
	if err != nil {
		return Stmt{}, fmt.Errorf("bad head: %v", err)
	}
	body = strings.TrimSpace(body)

	switch {
	case strings.HasPrefix(body, "⋈_"):
		rest := strings.TrimPrefix(body, "⋈_")
		// The order is braced or runs to the operand list's brace.
		cut := strings.Index(rest, "{")
		if strings.HasPrefix(rest, "{") {
			cut = strings.Index(rest, "}") + 1
		}
		if cut <= 0 {
			return Stmt{}, fmt.Errorf("multiway join needs an order and a braced operand list, got %q", body)
		}
		order, err := parseNames(strings.TrimSpace(rest[:cut]))
		if err != nil {
			return Stmt{}, fmt.Errorf("bad variable order: %v", err)
		}
		list := strings.TrimSpace(rest[cut:])
		if !strings.HasPrefix(list, "{") || !strings.HasSuffix(list, "}") {
			return Stmt{}, fmt.Errorf("multiway operands must be braced, got %q", list)
		}
		var args []string
		for _, ref := range splitRefs(list[1 : len(list)-1]) {
			arg, err := parseRef(strings.TrimSpace(ref))
			if err != nil {
				return Stmt{}, fmt.Errorf("bad multiway operand: %v", err)
			}
			args = append(args, arg)
		}
		return Stmt{Op: OpMultiway, Head: headName, Args: args, Order: order}, nil
	case strings.HasPrefix(body, "π_"):
		rest := strings.TrimSpace(strings.TrimPrefix(body, "π_"))
		// The operand is the last whitespace-separated token; the attribute
		// list (which may itself contain spaces inside braces) is the rest.
		cut := strings.LastIndexAny(rest, " \t")
		if cut < 0 {
			return Stmt{}, fmt.Errorf("projection needs attributes and one operand, got %q", body)
		}
		attrs := strings.TrimSpace(rest[:cut])
		src, err := parseRef(strings.TrimSpace(rest[cut:]))
		if err != nil {
			return Stmt{}, fmt.Errorf("bad projection operand: %v", err)
		}
		proj, err := parseAttrs(attrs)
		if err != nil {
			return Stmt{}, fmt.Errorf("bad projection attributes: %v", err)
		}
		return Stmt{Op: OpProject, Head: headName, Arg1: src, Proj: proj}, nil
	case strings.Contains(body, "⋈"):
		l, r, _ := strings.Cut(body, "⋈")
		a1, err := parseRef(strings.TrimSpace(l))
		if err != nil {
			return Stmt{}, err
		}
		a2, err := parseRef(strings.TrimSpace(r))
		if err != nil {
			return Stmt{}, err
		}
		return Stmt{Op: OpJoin, Head: headName, Arg1: a1, Arg2: a2}, nil
	case strings.Contains(body, "⋉"):
		l, r, _ := strings.Cut(body, "⋉")
		a1, err := parseRef(strings.TrimSpace(l))
		if err != nil {
			return Stmt{}, err
		}
		a2, err := parseRef(strings.TrimSpace(r))
		if err != nil {
			return Stmt{}, err
		}
		return Stmt{Op: OpSemijoin, Head: headName, Arg1: a1, Arg2: a2}, nil
	default:
		return Stmt{}, fmt.Errorf("no operator in %q", body)
	}
}

// parseRef parses "R(NAME)" or a bare name into NAME.
func parseRef(s string) (string, error) {
	if strings.HasPrefix(s, "R(") && strings.HasSuffix(s, ")") {
		inner := strings.TrimSuffix(strings.TrimPrefix(s, "R("), ")")
		if inner == "" {
			return "", fmt.Errorf("empty relation reference %q", s)
		}
		return inner, nil
	}
	if s == "" || strings.ContainsAny(s, "() \t") {
		return "", fmt.Errorf("bad relation reference %q", s)
	}
	return s, nil
}

// splitRefs splits a multiway operand list at the commas outside
// parentheses, so a braced scheme name inside "R(…)" stays whole.
func splitRefs(s string) []string {
	var refs []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				refs = append(refs, s[start:i])
				start = i + 1
			}
		}
	}
	return append(refs, s[start:])
}

// parseAttrs parses a projection attribute list (see parseNames) into a set.
func parseAttrs(s string) (relation.AttrSet, error) {
	names, err := parseNames(s)
	return relation.NewAttrSet(names...), err
}

// parseNames parses an attribute list, keeping its order: either
// single-character attributes concatenated ("CE", letters and digits only)
// or comma-separated names inside braces ("{city,year}"). Whitespace or
// punctuation in the compact form is rejected — it cannot survive a
// print/parse round trip.
func parseNames(s string) ([]string, error) {
	if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
		inner := strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
		if inner == "" {
			return nil, nil
		}
		parts := strings.Split(inner, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
			if parts[i] == "" || strings.ContainsAny(parts[i], "{}, \t") {
				return nil, fmt.Errorf("bad attribute name %q in %q", parts[i], s)
			}
		}
		return parts, nil
	}
	var names []string
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return nil, fmt.Errorf("bad character %q in compact attribute list %q (use braces for multi-character names)", r, s)
		}
		names = append(names, string(r))
	}
	if s == "" {
		return nil, fmt.Errorf("empty attribute list")
	}
	return names, nil
}
