package core

import (
	"testing"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/workloads"
)

// TestMoveKindsPreserveLegality is the move-legality property test: for
// every Table-1 move kind, applying the move to a legal EWF binding
// must yield a binding that passes binding.Check and evaluates. The
// walk adopts some mutated bindings as the new base so later applies
// start from states deep in the search space, not just the initial
// allocation.
func TestMoveKindsPreserveLegality(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 3, 2, false)
	opts := withDefaults(SALSAOptions(7))
	base := binding.New(a, hw, binding.DefaultConfig())
	if err := initialAllocation(base, opts); err != nil {
		t.Fatal(err)
	}
	if err := base.Check(); err != nil {
		t.Fatalf("initial allocation illegal: %v", err)
	}

	rng := newRNG(opts.Seed)
	mv := newMover(base, opts, rng)
	fired := make(map[moveKind]int)
	tx, err := binding.NewTx(base)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the base with a mixed walk: the initial allocation holds
	// every value in one register, so transfer-dependent moves (F4/F5)
	// have no instance until segment moves have created transfers.
	for i := 0; i < 1500; i++ {
		kind := mv.pickKind()
		tx.Begin()
		if !mv.apply(tx, kind) {
			tx.Rollback()
			continue
		}
		fired[kind]++
		if err := base.Check(); err != nil {
			t.Fatalf("%s produced an illegal binding during warm-up: %v", kind, err)
		}
		tx.Commit()
	}

	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		cur := base.Clone()
		if err := tx.Reset(cur); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			tx.Begin()
			if !mv.apply(tx, kind) {
				tx.Rollback()
				continue
			}
			fired[kind]++
			if err := cur.Check(); err != nil {
				t.Fatalf("%s produced an illegal binding on apply %d: %v", kind, fired[kind], err)
			}
			if _, _, err := cur.Eval(); err != nil {
				t.Fatalf("%s produced an unevaluable binding on apply %d: %v", kind, fired[kind], err)
			}
			if fired[kind]%3 == 0 {
				tx.Commit() // walk deeper so later applies see varied states
			} else {
				tx.Rollback()
			}
		}
	}
	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		if fired[kind] == 0 {
			t.Errorf("%s never applied; the property was not exercised for it", kind)
		}
	}
}

// TestMixedWalkStaysLegal interleaves all enabled move kinds in one
// long random walk, checking legality after every successful apply —
// cross-kind interactions (a split followed by an exchange followed by
// a merge) are where stale-state bugs hide.
func TestMixedWalkStaysLegal(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	opts := withDefaults(SALSAOptions(11))
	cur := binding.New(a, hw, binding.DefaultConfig())
	if err := initialAllocation(cur, opts); err != nil {
		t.Fatal(err)
	}
	rng := newRNG(opts.Seed)
	mv := newMover(cur, opts, rng)
	tx, err := binding.NewTx(cur)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for i := 0; i < 600; i++ {
		tx.Begin()
		if !mv.apply(tx, mv.pickKind()) {
			tx.Rollback()
			continue
		}
		applied++
		if err := cur.Check(); err != nil {
			t.Fatalf("mixed walk: illegal binding after %d applies: %v", applied, err)
		}
		tx.Commit()
	}
	if applied < 50 {
		t.Errorf("mixed walk only applied %d moves out of 600 attempts", applied)
	}
}

// TestParanoidSearchEWF runs a short full search with Options.Paranoid,
// which checks every move's delta cost and rollback and re-runs
// binding.Check after every accepted move and after the polish tail —
// the search aborts with an error on the first divergent move.
func TestParanoidSearchEWF(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	res, err := Allocate(a, hw, quickOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Binding.Check(); err != nil {
		t.Fatalf("final binding illegal: %v", err)
	}
	if res.MovesAccepted == 0 {
		t.Error("paranoid search accepted no moves; the legality property was not exercised")
	}
}

// TestParanoidOraclesCatchDivergence: the per-move checks Paranoid
// runs accept the exact state and reject a delta cost that differs
// from a full evaluation and a rollback that leaves the binding or the
// cost changed.
func TestParanoidOraclesCatchDivergence(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	b := binding.New(a, hw, binding.DefaultConfig())
	if err := initialAllocation(b, SALSAOptions(1)); err != nil {
		t.Fatal(err)
	}
	tx, err := binding.NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	cost := tx.Cost()
	pre := b.Clone()
	if err := checkDelta(b, cost); err != nil {
		t.Fatalf("exact cost rejected: %v", err)
	}
	if err := checkRollback(tx, pre, cost); err != nil {
		t.Fatalf("exact rollback rejected: %v", err)
	}
	wrong := cost
	wrong.MuxCost++
	wrong.Total += b.Cfg.Wmux
	if checkDelta(b, wrong) == nil {
		t.Error("checkDelta accepted a cost that differs from full evaluation")
	}
	if checkRollback(tx, pre, wrong) == nil {
		t.Error("checkRollback accepted a cost that differs from the pre-move cost")
	}

	// A change the rollback did not undo.
	op := cdfg.NodeID(-1)
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			op = cdfg.NodeID(i)
			break
		}
	}
	tx.Begin()
	tx.FlipSwap(op)
	tx.Commit()
	if checkRollback(tx, pre, cost) == nil {
		t.Error("checkRollback accepted a binding that differs from the pre-move clone")
	}
}
