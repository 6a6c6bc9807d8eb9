package engine

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

func TestProjectCyclic(t *testing.T) {
	db := example3DB(t, 6)
	out := relation.AttrSetOfRunes("BH")
	rep, err := Project(db, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustProject(db.Join(), out)
	if !rep.Result.Equal(want) {
		t.Errorf("Project = %s, want %s", rep.Result, want)
	}
	if rep.Strategy != StrategyProgram {
		t.Errorf("strategy = %s", rep.Strategy)
	}
}

func TestProjectAcyclicUsesYannakakis(t *testing.T) {
	db, err := workload.DanglingChainDatabase(4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewAttrSet("x0", "x4")
	rep, err := Project(db, out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustProject(db.Join(), out)
	if !rep.Result.Equal(want) {
		t.Error("acyclic projection wrong")
	}
	if rep.Strategy != StrategyAcyclic {
		t.Errorf("strategy = %s, want acyclic", rep.Strategy)
	}
}

func TestProjectBooleanQuery(t *testing.T) {
	db := example3DB(t, 6)
	rep, err := Project(db, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Len() != 1 || rep.Result.Schema().Len() != 0 {
		t.Errorf("boolean query = %d tuples over %d attrs", rep.Result.Len(), rep.Result.Schema().Len())
	}
}

func TestProjectRejectsBadAttrs(t *testing.T) {
	db := example3DB(t, 6)
	if _, err := Project(db, relation.NewAttrSet("Z"), Options{}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Project(nil, nil, Options{}); err == nil {
		t.Error("nil database accepted")
	}
}
