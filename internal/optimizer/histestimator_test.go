package optimizer

import (
	"math/rand"
	"testing"

	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/workload"
)

// skewedPairDB builds two relations sharing x with Zipf-distributed values.
func skewedPairDB(t *testing.T, n int, s float64) *relation.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(131))
	zipf := rand.NewZipf(rng, s, 1, 199)
	mk := func(extra string) *relation.Relation {
		r := relation.New(relation.MustSchema("x", extra))
		for i := 0; i < n; i++ {
			r.MustInsert(relation.Ints(int64(zipf.Uint64()), int64(i)))
		}
		return r
	}
	return relation.MustDatabase(mk("a"), mk("b"))
}

func TestHistogramEstimatorLeafExact(t *testing.T) {
	db := skewedPairDB(t, 500, 1.4)
	e := NewHistogramEstimatorFromSketches(CollectSketches(db).Snapshot(), 16)
	cost, stats := e.EstimateTree(jointree.NewLeaf(0))
	if cost != int64(db.Relation(0).Len()) || stats.Card != cost {
		t.Errorf("leaf estimate %d, want %d", cost, db.Relation(0).Len())
	}
}

// TestHistogramEstimatorBeatsIndependenceOnSkewedTree: on the skewed pair,
// the histogram estimator's join-size estimate must be closer to the truth.
func TestHistogramEstimatorBeatsIndependenceOnSkewedTree(t *testing.T) {
	db := skewedPairDB(t, 2000, 1.4)
	tree := jointree.NewJoin(jointree.NewLeaf(0), jointree.NewLeaf(1))
	truth := int64(relation.Join(db.Relation(0), db.Relation(1)).Len())

	hist := NewHistogramEstimatorFromSketches(CollectSketches(db).Snapshot(), 32)
	_, hs := hist.EstimateTree(tree)
	ind := NewEstimator(db)
	_, is := ind.EstimateTree(tree)

	errOf := func(est int64) float64 {
		r := float64(est) / float64(truth)
		if r < 1 {
			return 1 / r
		}
		return r
	}
	if errOf(hs.Card) >= errOf(is.Card) {
		t.Errorf("histogram estimate %d (err %.2f) should beat independence %d (err %.2f); truth %d",
			hs.Card, errOf(hs.Card), is.Card, errOf(is.Card), truth)
	}
	if errOf(hs.Card) > 2.0 {
		t.Errorf("histogram estimate %d off by %.2f× from truth %d", hs.Card, errOf(hs.Card), truth)
	}
}

// TestHistogramEstimatorAgreesOnUniform: on uniform data both estimators
// should be close to each other and the truth.
func TestHistogramEstimatorAgreesOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	h, err := workload.ChainScheme(3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.RandomDatabase(rng, h, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	tree := jointree.NewJoin(jointree.NewJoin(jointree.NewLeaf(0), jointree.NewLeaf(1)), jointree.NewLeaf(2))
	truth := int64(db.Join().Len())
	if truth == 0 {
		t.Skip("degenerate draw")
	}
	hist := NewHistogramEstimatorFromSketches(CollectSketches(db).Snapshot(), 32)
	_, hs := hist.EstimateTree(tree)
	if hs.Card < truth/5 || hs.Card > truth*5 {
		t.Errorf("uniform chain estimate %d vs truth %d", hs.Card, truth)
	}
}
