package workload

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// The adversarial estimation corpus: checked-in query shapes known to wreck
// cardinality estimators and binary join planners — unfiltered joins
// (Cartesian products), filters arriving after the product, star fan-outs,
// self-joins over duplicated data, products of unrelated predicates, and
// skewed cycles. The shapes follow the classic cartesian-explosion stress
// suites for Datalog engines; each case is sized so every engine strategy
// finishes within the case's tuple budget, which is what makes the corpus a
// gauntlet rather than a denial-of-service: a strategy that mishandles the
// shape blows the budget and fails loudly, instead of hanging CI.
//
// The corpus lives in testdata/adversarial/*.json and is embedded, so
// loading it needs no working directory: engine differential tests, the
// plan-route identity test, and the joinbench gauntlet (EX13) all read the
// same cases.

//go:embed testdata/adversarial/*.json
var adversarialFS embed.FS

// AdversarialCase is one corpus entry.
type AdversarialCase struct {
	// Name is the unique case identifier (the file's base name by
	// convention).
	Name string `json:"name"`
	// Shape documents which explosion pattern the case encodes.
	Shape string `json:"shape"`
	// Scheme is the hypergraph in ParseScheme notation ("AB CD AD").
	Scheme string `json:"scheme"`
	// Generator fills the relations: "uniform" (independent uniform
	// tuples), "zipf" (Zipf-skewed values, exponent Skew), or "identical"
	// (every relation holds the same uniform tuple set — the self-join
	// shape).
	Generator string `json:"generator"`
	// Size is the tuple count per relation; Domain the value domain.
	Size   int `json:"size"`
	Domain int `json:"domain"`
	// Skew is the Zipf exponent (> 1), used only by the zipf generator.
	Skew float64 `json:"skew,omitempty"`
	// Seed makes the instance deterministic.
	Seed int64 `json:"seed"`
	// Budget is the governor MaxTuples allowance every strategy must finish
	// under — the gauntlet bound.
	Budget int64 `json:"budget"`
}

// Hypergraph parses the case's scheme.
func (c AdversarialCase) Hypergraph() (*hypergraph.Hypergraph, error) {
	return hypergraph.ParseScheme(c.Scheme)
}

// Database builds the case's deterministic instance.
func (c AdversarialCase) Database() (*relation.Database, error) {
	h, err := c.Hypergraph()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	switch c.Generator {
	case "uniform":
		return RandomDatabase(rng, h, c.Size, c.Domain)
	case "zipf":
		return ZipfDatabase(rng, h, c.Size, c.Domain, c.Skew)
	case "identical":
		// One tuple set, shared by every relation: binary self-join shapes
		// ("all pairs of people") where every row matches every row through
		// the shared attributes.
		rows := make([]relation.Tuple, 0, c.Size)
		arity := len(h.Edge(0))
		for k := 0; k < c.Size; k++ {
			row := make(relation.Tuple, arity)
			for j := range row {
				row[j] = relation.Int(int64(rng.Intn(c.Domain)))
			}
			rows = append(rows, row)
		}
		rels := make([]*relation.Relation, h.Len())
		for i := 0; i < h.Len(); i++ {
			if len(h.Edge(i)) != arity {
				return nil, fmt.Errorf("workload: identical generator needs uniform arity in %q", c.Name)
			}
			rel := relation.New(relation.MustSchema(h.Edge(i)...))
			for _, row := range rows {
				_ = rel.Insert(row)
			}
			rels[i] = rel
		}
		return relation.NewDatabase(rels...)
	default:
		return nil, fmt.Errorf("workload: case %q has unknown generator %q", c.Name, c.Generator)
	}
}

// Validate checks one case is well-formed and generable.
func (c AdversarialCase) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("workload: adversarial case without a name")
	case strings.TrimSpace(c.Scheme) == "":
		return fmt.Errorf("workload: case %q has no scheme", c.Name)
	case c.Size < 1 || c.Domain < 1:
		return fmt.Errorf("workload: case %q needs positive size and domain", c.Name)
	case c.Budget < 1:
		return fmt.Errorf("workload: case %q has no tuple budget", c.Name)
	case c.Generator == "zipf" && c.Skew <= 1:
		return fmt.Errorf("workload: case %q needs Zipf exponent > 1, got %v", c.Name, c.Skew)
	}
	if _, err := c.Hypergraph(); err != nil {
		return fmt.Errorf("workload: case %q scheme: %w", c.Name, err)
	}
	return nil
}

// AdversarialCases loads and validates the embedded corpus, sorted by name.
func AdversarialCases() ([]AdversarialCase, error) {
	entries, err := adversarialFS.ReadDir("testdata/adversarial")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	cases := make([]AdversarialCase, 0, len(entries))
	for _, e := range entries {
		raw, err := adversarialFS.ReadFile("testdata/adversarial/" + e.Name())
		if err != nil {
			return nil, err
		}
		var c AdversarialCase
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("workload: %s: %w", e.Name(), err)
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("workload: duplicate adversarial case %q", c.Name)
		}
		seen[c.Name] = true
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("workload: embedded adversarial corpus is empty")
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}
