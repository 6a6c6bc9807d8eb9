package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/govern"
	"repro/internal/workload"
)

// GovernanceLadder (experiment EX6) runs every execution strategy on the
// paper's adversarial cycle under a tuple budget and shows which routes
// blow it, which complete, and where governed auto lands on its ladder. The
// budget defaults to a value between the program route's produced tuples
// and the classical routes', so auto completes on its first rung, the
// program; maxTuples overrides it (below the program's charge, auto falls
// through the classical rungs to the triejoin).
func GovernanceLadder(q, maxTuples int64) (*Table, error) {
	if maxTuples <= 0 {
		maxTuples = 15000
	}
	t := &Table{
		ID:    "EX6",
		Title: fmt.Sprintf("Extension — execution governance on Example3(q=%d), MaxTuples=%d", q, maxTuples),
		Columns: []string{
			"strategy", "outcome", "produced", "result tuples", "fallbacks",
		},
	}
	spec, err := workload.Example3(q)
	if err != nil {
		return nil, err
	}
	db, err := spec.CycleDatabase()
	if err != nil {
		return nil, err
	}
	want := db.Join()

	lim := govern.Limits{MaxTuples: maxTuples}
	for _, name := range []string{"direct", "cpf-expression", "reduce-then-join", "program", "auto"} {
		rep, err := joinBy(db, name, lim)
		switch {
		case err == nil:
			outcome := "completed"
			result := fmt.Sprint(rep.Result.Len())
			if !rep.Result.Equal(want) {
				outcome = "WRONG RESULT"
			}
			fallbacks := 0
			for _, n := range rep.Notes {
				if strings.HasPrefix(n, "degradation:") {
					fallbacks++
				}
			}
			if name == "auto" {
				name = fmt.Sprintf("auto (ran %s)", rep.Strategy)
			}
			t.AddRow(name, outcome, rep.Produced, result, fallbacks)
		case errors.Is(err, govern.ErrTupleBudget):
			var le *govern.LimitError
			produced := "—"
			if errors.As(err, &le) {
				produced = fmt.Sprint(le.Produced)
			}
			t.AddRow(name, "aborted: tuple budget", produced, "—", "—")
		default:
			return nil, fmt.Errorf("EX6 %s: %w", name, err)
		}
	}
	t.AddNote("budgets count produced tuples only (the §2.3 generated relations); the inputs and the optimizer's planning work are bounded separately")
	t.AddNote("explicit strategies abort hard with govern.ErrTupleBudget; auto degrades along engine.DegradationLadder and records each fallback in Report.Notes")
	t.AddNote("the derived program's semijoins keep its intermediates under the budget that kills every classical route — Theorem 2's robustness, operationalized")
	return t, nil
}
