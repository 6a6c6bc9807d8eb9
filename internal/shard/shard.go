// Package shard implements one-round MPC-style scatter-gather execution:
// a database's relations are hash-partitioned on one join attribute chosen
// from the hypergraph (relations lacking the attribute, or too small for
// repartitioning to pay, are broadcast to every shard instead), the
// engine's existing plan runs unchanged and independently on each shard,
// and the disjoint per-shard results merge back into one relation. The
// schedule follows "A Near-Optimal Parallel Algorithm for Joining Binary
// Relations" (PAPERS.md): partition on a shared attribute so matching
// tuples land on the same shard, broadcast small relations when shipping
// them whole is cheaper than repartitioning.
//
// The subsystem's contract is charge parity: a scattered execution's merged
// result, §2.3 cost, and governor-charged tuple count equal the sequential
// execution's exactly, and a tuple-budget abort fires on the same global
// produced count (per-shard governors share one govern.Pool). Parity holds
// only for (plan, partitioning) pairs the cleanliness analysis admits —
// see Group.CleanFor — so Run falls back to single-shard execution for
// anything unclean rather than scatter with approximate accounting.
package shard

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/store"
)

// DefaultBroadcastThreshold is the default relation size below which a
// relation containing the partition attribute is broadcast rather than
// repartitioned: shipping a handful of tuples to every shard is cheaper
// than the bookkeeping of keeping its partitions in step across ingest.
const DefaultBroadcastThreshold = 128

// ChooseAttribute picks the partition attribute for a scheme: the attribute
// on the most hyperedges, ties broken lexicographically. Partitioning on
// the highest-degree attribute maximizes the number of relations that can
// be hash-partitioned instead of broadcast — when an attribute is on every
// edge (a triangle's A, a star's center) the whole database partitions and
// every strategy scatters cleanly. The choice is deterministic: the same
// scheme always partitions on the same attribute.
func ChooseAttribute(h *hypergraph.Hypergraph) string {
	best, bestDeg := "", 0
	for _, a := range h.Attrs() {
		deg := 0
		for _, e := range h.Edges() {
			if e.Contains(a) {
				deg++
			}
		}
		if deg > bestDeg || (deg == bestDeg && bestDeg > 0 && a < best) {
			best, bestDeg = a, deg
		}
	}
	return best
}

// Group is one database's sharded layout: the partition attribute, the
// per-relation partitioned-or-broadcast decision, and the N per-shard
// databases over the same scheme. A Group is immutable — ingest produces a
// rebased successor via Rebase — so readers pin one consistent layout
// (including the matching unsharded catalog, Full) with a single atomic
// load.
type Group struct {
	attr      string
	n         int
	threshold int
	// part and pos are per relation in the database's registration order:
	// whether relation i is hash-partitioned on attr, and attr's column
	// position in its schema (-1 when absent). The decision is made once at
	// group construction from the then-current sizes and is sticky across
	// Rebase, so a relation never migrates between broadcast and
	// partitioned mid-stream.
	part []bool
	pos  []int
	// partCanon is part permuted into the scheme's canonical edge order —
	// the order plans (trees, programs, variable orders) are expressed in.
	partCanon []bool
	full      *relation.Database
	dbs       []*relation.Database
}

// NewGroup partitions db, the catalog database called name, into shards
// shards on the attribute ChooseAttribute picks. Relations lacking the
// attribute, or with fewer than broadcastThreshold tuples (0 = never
// broadcast by size), are broadcast: every shard database shares the full
// relation by pointer. shards must be >= 1; shards == 1 yields a trivial
// group whose only shard is db itself.
func NewGroup(name string, db *relation.Database, shards, broadcastThreshold int) (*Group, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("shard: %q: empty database", name)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: %q: shard count %d < 1", name, shards)
	}
	h := hypergraph.OfScheme(db)
	g := &Group{
		attr:      ChooseAttribute(h),
		n:         shards,
		threshold: broadcastThreshold,
		part:      make([]bool, db.Len()),
		pos:       make([]int, db.Len()),
		full:      db,
	}
	for i := 0; i < db.Len(); i++ {
		rel := db.Relation(i)
		p, ok := rel.Schema().Position(g.attr)
		if !ok {
			g.pos[i] = -1
			continue
		}
		g.pos[i] = p
		g.part[i] = shards == 1 || broadcastThreshold <= 0 || rel.Len() >= broadcastThreshold
	}
	perm := h.CanonicalOrder()
	g.partCanon = make([]bool, len(perm))
	for j, p := range perm {
		g.partCanon[j] = g.part[p]
	}
	if err := g.split(db); err != nil {
		return nil, err
	}
	return g, nil
}

// split builds the per-shard databases from the full catalog: partitioned
// relations are hashed row-by-row into n buckets, broadcast relations are
// shared by pointer (tuples and relations are immutable once registered).
func (g *Group) split(db *relation.Database) error {
	if g.n == 1 {
		g.dbs = []*relation.Database{db}
		return nil
	}
	shardRels := make([][]*relation.Relation, g.n)
	for s := range shardRels {
		shardRels[s] = make([]*relation.Relation, db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		rel := db.Relation(i)
		if !g.part[i] {
			for s := range shardRels {
				shardRels[s][i] = rel
			}
			continue
		}
		parts := make([]*relation.Relation, g.n)
		for s := range parts {
			parts[s] = relation.New(rel.Schema())
		}
		for _, t := range rel.Rows() {
			parts[t.ShardOf(g.pos[i], g.n)].MustInsert(t)
		}
		for s := range shardRels {
			shardRels[s][i] = parts[s]
		}
	}
	g.dbs = make([]*relation.Database, g.n)
	for s := range g.dbs {
		sdb, err := relation.NewDatabase(shardRels[s]...)
		if err != nil {
			return err
		}
		g.dbs[s] = sdb
	}
	return nil
}

// Attr returns the partition attribute.
func (g *Group) Attr() string { return g.attr }

// Shards returns the shard count.
func (g *Group) Shards() int { return g.n }

// Full returns the unsharded catalog the group was built from — the same
// snapshot the shard databases partition, so one Group load pins a
// consistent pair.
func (g *Group) Full() *relation.Database { return g.full }

// DB returns shard i's database.
func (g *Group) DB(i int) *relation.Database { return g.dbs[i] }

// PartitionedCount returns how many relations are hash-partitioned.
func (g *Group) PartitionedCount() int {
	c := 0
	for _, p := range g.part {
		if p {
			c++
		}
	}
	return c
}

// BroadcastTuples returns the total tuples of the broadcast relations in
// the current catalog. Each shard counts these among its inputs, so a
// scattered execution's summed §2.3 costs exceed the sequential cost by
// exactly (Shards-1) * BroadcastTuples — the correction Run applies.
func (g *Group) BroadcastTuples() int64 {
	var n int64
	for i, p := range g.part {
		if !p {
			n += int64(g.full.Relation(i).Len())
		}
	}
	return n
}

// Owner returns the shard owning tuple t of relation rel, or -1 when the
// relation is broadcast (the tuple belongs on every shard). This is the
// routing rule for ingest: it uses the same hash as the initial split, so
// a routed mutation lands exactly where the split would have put it.
func (g *Group) Owner(rel int, t relation.Tuple) int {
	if !g.part[rel] {
		return -1
	}
	return t.ShardOf(g.pos[rel], g.n)
}

// Rebase returns the group's successor after one ingest batch: applied is
// the post-batch durable catalog (from store.Apply), and batch is the
// batch itself, which Rebase routes to the owning shards and replays onto
// their databases in WAL order. Broadcast relations are not replayed —
// every shard re-shares applied's relation by pointer, which keeps them
// bit-identical to the durable catalog. The receiver is not modified.
func (g *Group) Rebase(applied *relation.Database, batch store.Batch) (*Group, error) {
	next := *g
	next.full = applied
	if g.n == 1 {
		next.dbs = []*relation.Database{applied}
		return &next, nil
	}
	// Only mutations on partitioned relations need routing; broadcast
	// relations are refreshed from the durable catalog below.
	var pbatch store.Batch
	for _, m := range batch {
		if m.Relation < 0 || m.Relation >= len(g.part) {
			return nil, fmt.Errorf("shard: batch names relation %d outside scheme [0,%d)", m.Relation, len(g.part))
		}
		if g.part[m.Relation] {
			pbatch = append(pbatch, m)
		}
	}
	routed := pbatch.Route(g.n, g.Owner)
	next.dbs = make([]*relation.Database, g.n)
	for s := 0; s < g.n; s++ {
		sdb := g.dbs[s]
		if len(routed[s]) > 0 {
			var err error
			sdb, err = store.ApplyBatch(sdb, routed[s])
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
		}
		rels := append([]*relation.Relation(nil), sdb.Relations()...)
		for i, p := range g.part {
			if !p {
				rels[i] = applied.Relation(i)
			}
		}
		ndb, err := relation.NewDatabase(rels...)
		if err != nil {
			return nil, err
		}
		next.dbs[s] = ndb
	}
	return &next, nil
}
