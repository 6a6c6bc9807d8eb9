package program_test

import (
	"fmt"
	"log"

	"repro/internal/program"
	"repro/internal/relation"
)

// ExampleProgram_Apply executes a program with the §2.3 cost accounting.
func ExampleProgram_Apply() {
	ab := relation.New(relation.SchemaOfRunes("AB"))
	ab.MustInsert(relation.Ints(1, 10))
	ab.MustInsert(relation.Ints(2, 20))
	bc := relation.New(relation.SchemaOfRunes("BC"))
	bc.MustInsert(relation.Ints(10, 7))
	db := relation.MustDatabase(ab, bc)

	p := &program.Program{
		Inputs: []string{"AB", "BC"},
		Stmts: []program.Stmt{
			{Op: program.OpSemijoin, Head: "AB", Arg1: "AB", Arg2: "BC"},
			{Op: program.OpJoin, Head: "V", Arg1: "AB", Arg2: "BC"},
		},
		Output: "V",
	}
	res, err := p.Apply(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("result:", res.Output.Len(), "tuple(s)")
	fmt.Println("cost:  ", res.Cost)
	// Output:
	// result: 1 tuple(s)
	// cost:   5
}
