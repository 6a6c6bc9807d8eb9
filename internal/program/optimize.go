package program

// liveKeep computes, by a single backward liveness scan, which statements
// are live. A statement is dead when the relation it assigns is overwritten
// before being read and is not the program's output. A semijoin in the §2.2
// in-place form reads its own head; the generalized form reads only its
// operands (Arg1 may equal Head, which the scan handles uniformly since the
// read happens in the same statement as the kill).
func (p *Program) liveKeep() []bool {
	live := map[string]bool{p.Output: true}
	keep := make([]bool, len(p.Stmts))
	for i := len(p.Stmts) - 1; i >= 0; i-- {
		s := p.Stmts[i]
		if !live[s.Head] {
			continue // dead: head unread before its next overwrite
		}
		keep[i] = true
		// This definition satisfies the pending reads of the head...
		live[s.Head] = false
		// ...and reads its operands.
		for _, r := range s.Reads() {
			live[r] = true
		}
	}
	return keep
}

// EliminateDead returns a copy of the program with dead statements removed.
// Removing dead statements never changes the output relation and never
// increases the cost (each removed statement drops its head's tuples from
// the §2.3 cost sum).
func (p *Program) EliminateDead() *Program {
	keep := p.liveKeep()
	out := &Program{
		Inputs: append([]string(nil), p.Inputs...),
		Output: p.Output,
	}
	for i, s := range p.Stmts {
		if keep[i] {
			out.Stmts = append(out.Stmts, s)
		}
	}
	return out
}

// DeadStatements returns the 0-based indexes of the statements
// EliminateDead would remove; useful for diagnostics.
func (p *Program) DeadStatements() []int {
	keep := p.liveKeep()
	var dead []int
	for i, k := range keep {
		if !k {
			dead = append(dead, i)
		}
	}
	return dead
}
