// Command planexplore optimizes join expressions over a randomly generated
// database for a given scheme and reports the cost landscape: the optimum in
// each search space (all / CPF / linear / linear CPF), the heuristic
// baselines, and the cost of the program Algorithms 1+2 derive from the
// optimal tree.
//
// Usage:
//
//	planexplore -scheme "ABC CDE EFG GHA" [-size 30] [-domain 3] [-seed N]
//	planexplore -cycle 4 -m 2 -payload "500,50,5,50"
//
// With -cycle the Example-3 family generator is used instead of random
// data.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	scheme := flag.String("scheme", "ABC CDE EFG GHA", "database scheme (ignored with -cycle)")
	size := flag.Int("size", 30, "tuples per relation for random data")
	domain := flag.Int("domain", 3, "attribute domain size for random data")
	seed := flag.Int64("seed", 1, "random seed")
	cycle := flag.Int("cycle", 0, "use the Example-3 cycle family with this many relations")
	m := flag.Int64("m", 2, "cycle link-domain size")
	payload := flag.String("payload", "", "comma-separated per-relation payload counts for -cycle")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	db, err := buildDatabase(rng, *scheme, *size, *domain, *cycle, *m, *payload)
	if err != nil {
		log.Fatal(err)
	}
	h := hypergraph.OfScheme(db)
	fmt.Println("scheme:  ", h)
	fmt.Println("database:", db)
	fmt.Println("⋈D size: ", db.Join().Len())

	cat := optimizer.NewCatalog(db, 0)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "\nmethod\tcost\ttree")

	opt, err := optimizer.Optimal(cat, optimizer.SpaceAll)
	if err != nil {
		log.Fatal(err)
	}
	show := func(name string, p optimizer.Plan, err error) {
		if err != nil {
			fmt.Fprintf(w, "%s\t—\t(%v)\n", name, err)
			return
		}
		fmt.Fprintf(w, "%s\t%d\t%s\n", name, p.Cost, p.Tree.String(h))
	}
	show("optimal (all trees)", opt, nil)
	p, err := optimizer.Optimal(cat, optimizer.SpaceCPF)
	show("optimal CPF", p, err)
	p, err = optimizer.Optimal(cat, optimizer.SpaceLinear)
	show("optimal linear", p, err)
	p, err = optimizer.Optimal(cat, optimizer.SpaceLinearCPF)
	show("optimal linear CPF", p, err)
	p, err = optimizer.Greedy(cat, false)
	show("greedy", p, err)
	p, err = optimizer.IterativeImprovement(cat, rng, 10)
	show("iterative improvement", p, err)
	p, err = optimizer.SimulatedAnnealing(cat, rng, optimizer.AnnealOptions{})
	show("simulated annealing", p, err)
	w.Flush()

	// Derive and run the program from the optimal tree.
	d, err := core.DeriveFromTree(opt.Tree, h, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.Program.Apply(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprogram derived from the optimal tree (Algorithms 1 + 2):")
	fmt.Println(d.Program)
	fmt.Printf("\ncost(P(D)) = %d  (optimal expression: %d; Theorem 2 bound: %d)\n",
		res.Cost, opt.Cost, int64(d.QuasiFactor)*opt.Cost)
	fmt.Println("program output correct:", res.Output.Equal(db.Join()))
}

func buildDatabase(rng *rand.Rand, scheme string, size, domain, cycle int, m int64, payload string) (*relation.Database, error) {
	if cycle > 0 {
		payloads := make([]int64, 0, cycle)
		if payload == "" {
			for i := 0; i < cycle; i++ {
				payloads = append(payloads, 10)
			}
		} else {
			for _, p := range strings.Split(payload, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad payload list %q: %v", payload, err)
				}
				payloads = append(payloads, v)
			}
		}
		spec := workload.CycleSpec{Relations: cycle, M: m, Payloads: payloads}
		return spec.CycleDatabase()
	}
	h, err := hypergraph.ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	return workload.RandomDatabase(rng, h, size, domain)
}
