// Cyclequery sweeps the Example-3 family and prints, for each scale, the
// cost of the optimal join expression, the cheapest Cartesian-product-free
// and linear expressions, and the program Algorithms 1+2 derive — the
// paper's headline separation, measured.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

func main() {
	maxQ := flag.Int64("maxq", 20, "largest (even) scale to measure")
	flag.Parse()
	// Every Example 3 instance has |⋈D| = 1, which a searched plan's cost
	// leaves out; the tables print the paper's full cost.
	const root = 1

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "q\toptimal\tcheapest CPF\tcheapest linear\tprogram\tCPF/opt\tprog/opt")
	for q := int64(6); q <= *maxQ; q += 4 {
		spec, err := workload.Example3(q)
		if err != nil {
			log.Fatal(err)
		}
		db, err := spec.CycleDatabase()
		if err != nil {
			log.Fatal(err)
		}
		cat := optimizer.NewCatalog(db, 0)
		opt, err := optimizer.Optimal(cat, optimizer.SpaceAll)
		if err != nil {
			log.Fatal(err)
		}
		cpf, err := optimizer.Optimal(cat, optimizer.SpaceCPF)
		if err != nil {
			log.Fatal(err)
		}
		lin, err := optimizer.Optimal(cat, optimizer.SpaceLinear)
		if err != nil {
			log.Fatal(err)
		}
		h := hypergraph.OfScheme(db)
		d, err := core.DeriveFromTree(opt.Tree, h, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Program.Apply(db)
		if err != nil {
			log.Fatal(err)
		}
		if res.Output.Len() != 1 {
			log.Fatalf("q=%d: program computed %d tuples, want 1", q, res.Output.Len())
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\n",
			q, opt.Cost+root, cpf.Cost+root, lin.Cost+root, res.Cost,
			float64(cpf.Cost+root)/float64(opt.Cost+root), float64(int64(res.Cost))/float64(opt.Cost+root))
	}
	w.Flush()

	fmt.Println("\nThe CPF/opt ratio grows linearly in q (the paper's unbounded gap);")
	fmt.Println("the derived program tracks — and below the crossover even beats — the optimal expression.")
	fmt.Println("Closed-form costs for the paper's own scales (q = 10^k):")
	for _, q := range []int64{10, 100, 1000} {
		spec, err := workload.Example3(q)
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
		fmt.Printf("  q=%-5d optimal=%-16d (paper: < 10^{4k+1})  cheapest CPF=%-18d (paper: > 2·10^{5k})\n",
			q, opt.Cost+root, cpf.Cost+root)
	}
}
