// Enginetour drives the engine facade — the library surface a downstream
// user would call — across three characteristic workloads, printing each
// strategy's EXPLAIN report: the paper's adversarial cycle (the program
// route wins), a star join with dangling keys (the acyclic pipeline
// applies), and a skewed cyclic instance (where estimators would go wrong
// but exact search doesn't).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	section("1. The paper's adversarial cycle (Example 3, q = 10)")
	spec, err := workload.Example3(10)
	if err != nil {
		log.Fatal(err)
	}
	cycle, err := spec.CycleDatabase()
	if err != nil {
		log.Fatal(err)
	}
	runAll(cycle, []engine.Strategy{
		engine.StrategyExpression,
		engine.StrategyReduceThenJoin,
		engine.StrategyProgram,
	})

	section("2. Star join with dangling foreign keys (acyclic)")
	rng := rand.New(rand.NewSource(7))
	star, err := workload.StarJoin(rng, workload.StarJoinSpec{
		Dimensions: 3,
		FactRows:   500,
		DimRows:    []int{40, 25, 10},
		MissRate:   0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	runAll(star, []engine.Strategy{
		engine.StrategyAuto, // picks the acyclic pipeline
		engine.StrategyProgram,
	})

	section("3. Skewed (Zipf) cyclic data")
	h, err := workload.UniformCycle(5, 3, 2).CycleScheme()
	if err != nil {
		log.Fatal(err)
	}
	skew, err := workload.ZipfDatabase(rng, h, 120, 30, 1.4)
	if err != nil {
		log.Fatal(err)
	}
	runAll(skew, []engine.Strategy{
		engine.StrategyExpression,
		engine.StrategyProgram,
	})
}

func section(title string) {
	fmt.Println()
	fmt.Println("══ " + title + " ══")
}

func runAll(db *relation.Database, strategies []engine.Strategy) {
	fmt.Println("database:", db)
	for _, s := range strategies {
		rep, err := engine.Join(db, engine.Options{Strategy: s})
		if err != nil {
			fmt.Printf("\n[%s] not applicable: %v\n", s, err)
			continue
		}
		fmt.Println()
		fmt.Println(rep.Explain())
	}
}
