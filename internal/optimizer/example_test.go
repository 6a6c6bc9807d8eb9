package optimizer_test

import (
	"fmt"
	"log"

	"repro/internal/optimizer"
	"repro/internal/workload"
)

// ExampleOptimal reproduces the Example 3 cost separation at the paper's
// k = 1 scale using the family's closed-form sizes — no data materialized.
// A plan's cost leaves out |⋈D|, which every expression pays at its root.
func ExampleOptimal() {
	spec, err := workload.Example3(10)
	if err != nil {
		log.Fatal(err)
	}
	sizer, err := spec.AnalyticSizer()
	if err != nil {
		log.Fatal(err)
	}
	opt, err := optimizer.Optimal(sizer, optimizer.SpaceAll)
	if err != nil {
		log.Fatal(err)
	}
	cpf, err := optimizer.Optimal(sizer, optimizer.SpaceCPF)
	if err != nil {
		log.Fatal(err)
	}
	root, err := sizer.Size(sizer.Hypergraph().Full())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal:     ", opt.Cost+root)
	fmt.Println("cheapest CPF:", cpf.Cost+root)
	fmt.Println("optimal is CPF:", opt.Tree.IsCPF(sizer.Hypergraph()))
	// Output:
	// optimal:      22427
	// cheapest CPF: 26717
	// optimal is CPF: false
}
