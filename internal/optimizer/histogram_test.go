package optimizer

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// buildCol makes a single-column relation with the given values (a column
// of a wider relation works too, but tests stay simpler with one column
// plus a row id to defeat set-dedup).
func buildCol(vals []int64) *relation.Relation {
	r := relation.New(relation.MustSchema("x", "rid"))
	for i, v := range vals {
		r.MustInsert(relation.Ints(v, int64(i)))
	}
	return r
}

func TestBuildHistogramBasics(t *testing.T) {
	r := buildCol([]int64{1, 1, 2, 3, 3, 3, 4, 5, 6, 7})
	h, err := BuildHistogram(r, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets cover the sorted values in order and never split a value.
	var seen int64
	for i := range h.Bounds {
		if h.Rows[i] <= 0 || h.Distinct[i] <= 0 {
			t.Errorf("bucket %d: rows %d distinct %d", i, h.Rows[i], h.Distinct[i])
		}
		if i > 0 && h.Bounds[i].Compare(h.Bounds[i-1]) <= 0 {
			t.Errorf("bounds not increasing at %d", i)
		}
		seen += h.Rows[i]
	}
	if seen != 10 {
		t.Errorf("buckets cover %d rows", seen)
	}
	if _, err := BuildHistogram(r, "nope", 4); err == nil {
		t.Error("missing attribute accepted")
	}
	if _, err := BuildHistogram(r, "x", 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestBuildHistogramEmpty(t *testing.T) {
	r := relation.New(relation.MustSchema("x"))
	h, err := BuildHistogram(r, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Bounds) != 0 {
		t.Errorf("empty histogram wrong: %+v", h)
	}
	if EstimateEquiJoin(h, h) != 0 {
		t.Error("join estimate on empty histograms should be 0")
	}
}

// trueEquiJoin counts matching pairs on x exactly.
func trueEquiJoin(a, b *relation.Relation) int64 {
	counts := map[int64]int64{}
	posA, _ := a.Schema().Position("x")
	for _, row := range a.Rows() {
		counts[row[posA].AsInt()]++
	}
	posB, _ := b.Schema().Position("x")
	var total int64
	for _, row := range b.Rows() {
		total += counts[row[posB].AsInt()]
	}
	return total
}

// TestEstimateEquiJoinUniform: on uniform data both the histogram and the
// independence estimate should be within a small factor of the truth.
func TestEstimateEquiJoinUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	mk := func(n, domain int) *relation.Relation {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(domain))
		}
		return buildCol(vals)
	}
	a, b := mk(2000, 100), mk(2000, 100)
	ha, err := BuildHistogram(a, "x", 20)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := BuildHistogram(b, "x", 20)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueEquiJoin(a, b)
	est := EstimateEquiJoin(ha, hb)
	if est < truth/3 || est > truth*3 {
		t.Errorf("uniform estimate %d vs truth %d (off by > 3×)", est, truth)
	}
}

// TestHistogramBeatsIndependenceOnSkew: on Zipf data the histogram estimate
// must be closer to the truth than the independence estimate — the reason
// real optimizers carry histograms.
func TestHistogramBeatsIndependenceOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	zipf := rand.NewZipf(rng, 1.3, 1, 199)
	mk := func(n int) *relation.Relation {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(zipf.Uint64())
		}
		return buildCol(vals)
	}
	a, b := mk(3000), mk(3000)
	truth := trueEquiJoin(a, b)

	ha, err := BuildHistogram(a, "x", 30)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := BuildHistogram(b, "x", 30)
	if err != nil {
		t.Fatal(err)
	}
	histEst := EstimateEquiJoin(ha, hb)

	// Independence estimate: |a|·|b| / max(d(a), d(b)).
	sa, sb := CollectStats(a), CollectStats(b)
	div := sa.Distinct["x"]
	if sb.Distinct["x"] > div {
		div = sb.Distinct["x"]
	}
	indEst := sa.Card * sb.Card / div

	errOf := func(est int64) float64 {
		r := float64(est) / float64(truth)
		if r < 1 {
			return 1 / r
		}
		return r
	}
	if errOf(histEst) >= errOf(indEst) {
		t.Errorf("histogram (est %d, err %.2fx) should beat independence (est %d, err %.2fx); truth %d",
			histEst, errOf(histEst), indEst, errOf(indEst), truth)
	}
}

// TestHistogramOnWorkloadZipf exercises the workload generator path.
func TestHistogramOnWorkloadZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	h, err := workload.ChainScheme(2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.ZipfDatabase(rng, h, 500, 60, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := BuildHistogram(db.Relation(0), "x1", 16)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, n := range hist.Rows {
		rows += n
	}
	if rows != int64(db.Relation(0).Len()) {
		t.Errorf("buckets hold %d rows vs relation %d", rows, db.Relation(0).Len())
	}
}
