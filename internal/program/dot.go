package program

import (
	"fmt"
	"strings"
)

// DOT renders the program's dataflow in Graphviz dot syntax: a node per
// statement (labeled with the statement text) and per input, with edges
// from each relation's most recent definition to the statements reading it.
// Pipe through `dot -Tsvg` for a dataflow diagram of a derived program.
func (p *Program) DOT(graphName string) string {
	if graphName == "" {
		graphName = "program"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", graphName)
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [fontname=\"Helvetica\"];\n")

	// lastDef maps a relation name to the DOT node currently defining it.
	lastDef := make(map[string]string, len(p.Inputs)+len(p.Stmts))
	for i, in := range p.Inputs {
		node := fmt.Sprintf("in%d", i)
		fmt.Fprintf(&b, "  %s [label=%q, shape=ellipse];\n", node, "R("+in+")")
		lastDef[in] = node
	}
	for i, s := range p.Stmts {
		node := fmt.Sprintf("s%d", i)
		fmt.Fprintf(&b, "  %s [label=%q, shape=box];\n", node, s.String())
		for _, r := range s.Reads() {
			if def, ok := lastDef[r]; ok {
				fmt.Fprintf(&b, "  %s -> %s;\n", def, node)
			}
		}
		lastDef[s.Head] = node
	}
	if def, ok := lastDef[p.Output]; ok {
		b.WriteString("  out [label=\"⋈D\", shape=doublecircle];\n")
		fmt.Fprintf(&b, "  %s -> out;\n", def)
	}
	b.WriteString("}\n")
	return b.String()
}
