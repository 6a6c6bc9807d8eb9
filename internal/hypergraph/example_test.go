package hypergraph_test

import (
	"fmt"
	"log"

	"repro/internal/hypergraph"
)

// ExampleHypergraph_GYO distinguishes acyclic from cyclic schemes.
func ExampleHypergraph_GYO() {
	chain, err := hypergraph.ParseScheme("AB BC CD")
	if err != nil {
		log.Fatal(err)
	}
	cycle, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chain acyclic:", chain.Acyclic())
	fmt.Println("paper's 4-cycle acyclic:", cycle.Acyclic())
	// Output:
	// chain acyclic: true
	// paper's 4-cycle acyclic: false
}

// ExampleHypergraph_Components shows the connectivity machinery Algorithm 1
// runs on: the opposite pair {ABC, EFG} splits into two components.
func ExampleHypergraph_Components() {
	h, err := hypergraph.ParseScheme("ABC CDE EFG GHA")
	if err != nil {
		log.Fatal(err)
	}
	opposite := hypergraph.MaskOf(0, 2) // {ABC, EFG}
	fmt.Println("connected:", h.Connected(opposite))
	fmt.Println("components:", len(h.Components(opposite)))
	adjacent := hypergraph.MaskOf(0, 1) // {ABC, CDE} share C
	fmt.Println("adjacent connected:", h.Connected(adjacent))
	// Output:
	// connected: false
	// components: 2
	// adjacent connected: true
}
