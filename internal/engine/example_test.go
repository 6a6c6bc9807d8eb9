package engine_test

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/workload"
)

// ExampleJoin shows the facade on the paper's adversarial instance: the
// auto strategy routes cyclic schemes through Algorithms 1+2.
func ExampleJoin() {
	spec, err := workload.Example3(10)
	if err != nil {
		log.Fatal(err)
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := engine.Join(db, engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("result:  ", rep.Result.Len(), "tuple(s)")
	fmt.Println("cost:    ", rep.Cost)
	// Output:
	// strategy: program
	// result:   1 tuple(s)
	// cost:     8329
}
