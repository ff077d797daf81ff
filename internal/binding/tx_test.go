package binding

import (
	"reflect"
	"sort"
	"testing"

	"salsa/internal/cdfg"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// walkRNG is the repo's LCG, so the random walk below replays from its
// seed without math/rand.
type walkRNG struct{ x uint64 }

func (r *walkRNG) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 16
}

func (r *walkRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// txFixture: two ALUs, four registers, a value (v) alive for three
// steps — so segment moves create transfers, transfers can be
// pass-bound, and op rebinding has a real choice of unit.
//
//	v = x+y (step 0, born 1); u = v+x (step 1); w = v+y (forced step 3).
func txFixture(t *testing.T) (*fixture, *Binding) {
	t.Helper()
	g := cdfg.New("txwalk")
	x := g.Input("x")
	y := g.Input("y")
	v := g.Add("v", x, y)
	u := g.Add("u", v, x)
	w := g.Add("w", v, y)
	g.Output("ou", u)
	g.Output("ow", w)
	fx := makeFixture(t, g, 4, sched.Limits{sched.ClassALU: 2}, 4)
	for i := range g.Nodes {
		switch g.Nodes[i].Name {
		case "v":
			fx.s.Start[i] = 0
		case "u":
			fx.s.Start[i] = 1
		case "w":
			fx.s.Start[i] = 3
		case "ou":
			fx.s.Start[i] = 2
		case "ow":
			fx.s.Start[i] = 4
		}
	}
	a, err := lifetime.Analyze(fx.s)
	if err != nil {
		t.Fatal(err)
	}
	fx.a = a
	b := New(fx.a, fx.hw, DefaultConfig())
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			b.OpFU[i] = 0
		}
	}
	for id := range fx.a.Values {
		for k := range b.SegReg[id] {
			b.SegReg[id][k] = id % len(fx.hw.Regs)
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("tx fixture binding illegal: %v", err)
	}
	vid := fx.a.ValueOf[v]
	if vv := fx.a.Value(vid); vv.Len < 3 {
		t.Fatalf("fixture drift: value v has chain length %d, want >= 3", vv.Len)
	}
	return fx, b
}

// snapshot is the mutable binding state a rollback must restore.
type txSnapshot struct {
	opFU   []int
	opSwap []bool
	segReg [][]int
	copies map[SegKey][]int
	pass   map[TransferKey]int
}

func takeSnapshot(b *Binding) txSnapshot {
	nb := b.Clone()
	return txSnapshot{nb.OpFU, nb.OpSwap, nb.SegReg, nb.Copies, nb.Pass}
}

func assertRestored(t *testing.T, step int, b *Binding, want txSnapshot) {
	t.Helper()
	got := txSnapshot{b.OpFU, b.OpSwap, b.SegReg, b.Copies, b.Pass}
	if !reflect.DeepEqual(got.opFU, want.opFU) {
		t.Fatalf("step %d: rollback left OpFU %v, want %v", step, got.opFU, want.opFU)
	}
	if !reflect.DeepEqual(got.opSwap, want.opSwap) {
		t.Fatalf("step %d: rollback left OpSwap %v, want %v", step, got.opSwap, want.opSwap)
	}
	if !reflect.DeepEqual(got.segReg, want.segReg) {
		t.Fatalf("step %d: rollback left SegReg %v, want %v", step, got.segReg, want.segReg)
	}
	if !reflect.DeepEqual(got.copies, want.copies) {
		t.Fatalf("step %d: rollback left Copies %v, want %v", step, got.copies, want.copies)
	}
	if !reflect.DeepEqual(got.pass, want.pass) {
		t.Fatalf("step %d: rollback left Pass %v, want %v", step, got.pass, want.pass)
	}
}

// sortedPassKeys collects the pass bindings in a deterministic order so
// the seeded walk replays identically.
func sortedPassKeys(b *Binding) []TransferKey {
	keys := make([]TransferKey, 0, len(b.Pass))
	for tk := range b.Pass {
		keys = append(keys, tk)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, bb := keys[i], keys[j]
		if a.V != bb.V {
			return a.V < bb.V
		}
		if a.K != bb.K {
			return a.K < bb.K
		}
		return a.ToReg < bb.ToReg
	})
	return keys
}

// TestTxRandomWalkMatchesFullEval is the incremental-binding property
// test: a seeded walk drives every Tx mutator — including illegal
// mutations the engine's movers would never emit — and checks, at every
// step, the two contracts the search depends on:
//
//   - DeltaCost on a legal state equals a full Eval of the same state,
//     term by term (the affected-set replay misses nothing);
//   - Rollback restores the exact pre-move binding AND cost tables,
//     whether the move was legal, illegal, or unevaluable.
func TestTxRandomWalkMatchesFullEval(t *testing.T) {
	fx, b := txFixture(t)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	_, baseline, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != baseline {
		t.Fatalf("fresh Tx cost %+v, want the full Eval %+v", got, baseline)
	}

	var arith []cdfg.NodeID
	for i := range fx.g.Nodes {
		if fx.g.Nodes[i].Op.IsArith() {
			arith = append(arith, cdfg.NodeID(i))
		}
	}
	nF, nR := len(fx.hw.FUs), len(fx.hw.Regs)
	rng := &walkRNG{x: 20260808}

	// One random mutation; returns the kind applied (for the coverage
	// tally) or "" when the pick was a no-op on the current state.
	mutate := func() string {
		switch rng.intn(8) {
		case 0:
			tx.SetOpFU(arith[rng.intn(len(arith))], rng.intn(nF))
			return "setopfu"
		case 1:
			tx.FlipSwap(arith[rng.intn(len(arith))])
			return "flipswap"
		case 2:
			vid := lifetime.ValueID(rng.intn(len(fx.a.Values)))
			k := rng.intn(fx.a.Value(vid).Len)
			tx.SetSegReg(vid, k, rng.intn(nR))
			return "setsegreg"
		case 3:
			vid := lifetime.ValueID(rng.intn(len(fx.a.Values)))
			k := rng.intn(fx.a.Value(vid).Len)
			tx.AddCopy(vid, k, rng.intn(nR))
			return "addcopy"
		case 4:
			vid := lifetime.ValueID(rng.intn(len(fx.a.Values)))
			k := rng.intn(fx.a.Value(vid).Len)
			if tx.RemoveCopy(vid, k, rng.intn(nR)) {
				return "removecopy"
			}
			return ""
		case 5:
			ts := b.Transfers()
			if len(ts) == 0 {
				return ""
			}
			tx.SetPass(ts[rng.intn(len(ts))], rng.intn(nF))
			return "setpass"
		case 6:
			keys := sortedPassKeys(b)
			if len(keys) == 0 {
				return ""
			}
			if tx.UnbindPass(keys[rng.intn(len(keys))]) {
				return "unbindpass"
			}
			return ""
		default:
			if tx.PrunePass() > 0 {
				return "prunepass"
			}
			return ""
		}
	}

	applied := map[string]int{}
	outcomes := map[string]int{}
	const steps = 400
	for step := 0; step < steps; step++ {
		pre := takeSnapshot(b)
		preCost := baseline
		tx.Begin()
		moved := false
		for n := 1 + rng.intn(2); n > 0; n-- {
			if kind := mutate(); kind != "" {
				applied[kind]++
				moved = true
			}
		}
		if !moved {
			tx.Rollback()
			continue
		}

		if cerr := b.Check(); cerr != nil {
			// Illegal state: the engine would never evaluate it, but the
			// undo log must still unwind it exactly.
			tx.Rollback()
			assertRestored(t, step, b, pre)
			if got := tx.Cost(); got != preCost {
				t.Fatalf("step %d: cost after illegal-move rollback %+v, want %+v", step, got, preCost)
			}
			outcomes["illegal"]++
			continue
		}

		delta, derr := tx.DeltaCost()
		if derr != nil {
			// DeltaCost promises to fail exactly when full Eval would.
			if _, _, eerr := b.Eval(); eerr == nil {
				t.Fatalf("step %d: DeltaCost failed (%v) but full Eval succeeds", step, derr)
			}
			tx.Rollback()
			assertRestored(t, step, b, pre)
			outcomes["unevaluable"]++
			continue
		}
		_, want, eerr := b.Eval()
		if eerr != nil {
			t.Fatalf("step %d: DeltaCost succeeded but full Eval fails: %v", step, eerr)
		}
		if delta != want {
			t.Fatalf("step %d: DeltaCost %+v diverges from full Eval %+v", step, delta, want)
		}

		if rng.intn(2) == 0 {
			tx.Commit()
			baseline = delta
			if got := tx.Cost(); got != want {
				t.Fatalf("step %d: cost after commit %+v, want %+v", step, got, want)
			}
			outcomes["commit"]++
		} else {
			tx.Rollback()
			assertRestored(t, step, b, pre)
			if got := tx.Cost(); got != preCost {
				t.Fatalf("step %d: cost after rollback %+v, want %+v", step, got, preCost)
			}
			outcomes["rollback"]++
		}
	}

	// The walk must actually have exercised every mutator and every
	// outcome; a degenerate seed would silently gut the test.
	for _, kind := range []string{"setopfu", "flipswap", "setsegreg", "addcopy", "removecopy", "setpass", "unbindpass"} {
		if applied[kind] == 0 {
			t.Errorf("random walk never applied %s (tally %v)", kind, applied)
		}
	}
	for _, out := range []string{"commit", "rollback", "illegal"} {
		if outcomes[out] == 0 {
			t.Errorf("random walk never hit outcome %s (tally %v)", out, outcomes)
		}
	}

	// After the walk the incremental tables still agree with a fresh
	// full evaluation — no drift accumulated across 400 moves.
	_, final, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != final {
		t.Fatalf("post-walk Tx cost %+v, want %+v", got, final)
	}
}

// TestTxResetReseedsFromCurrentState: Reset on a mutated binding must
// rebuild the use counts and cost table so Cost matches a full Eval —
// the per-restart entry point the search relies on.
func TestTxResetReseedsFromCurrentState(t *testing.T) {
	_, b := txFixture(t)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate outside any move, as a restart would hand the Tx a
	// rearranged binding.
	tx.Begin()
	tx.SetOpFU(3, 1) // node u
	tx.AddCopy(0, 0, 3)
	tx.Commit()
	if err := b.Check(); err != nil {
		t.Fatalf("rearranged binding illegal: %v", err)
	}
	if err := tx.Reset(b); err != nil {
		t.Fatal(err)
	}
	_, want, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != want {
		t.Fatalf("cost after Reset %+v, want full Eval %+v", got, want)
	}
}

// TestTxPrunePassRollsBack: the transactional PrunePass logs its
// removals, so rejecting the surrounding move restores the pass
// bindings it pruned.
func TestTxPrunePassRollsBack(t *testing.T) {
	_, b, vid := movingFixture(t)
	tk := TransferKey{V: vid, K: 2, ToReg: 1}
	b.Pass[tk] = 0
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Move the segment home: the transfer disappears, the pass binding
	// goes stale, and PrunePass inside the move removes it.
	tx.Begin()
	tx.SetSegReg(vid, 2, 0)
	if n := tx.PrunePass(); n != 1 {
		t.Fatalf("PrunePass = %d, want 1", n)
	}
	if _, ok := b.Pass[tk]; ok {
		t.Fatal("stale pass binding survived PrunePass")
	}
	tx.Rollback()
	if f, ok := b.Pass[tk]; !ok || f != 0 {
		t.Fatalf("rollback did not restore the pruned pass binding: %v %t", f, ok)
	}
	if b.SegReg[vid][2] != 1 {
		t.Fatalf("rollback did not restore the segment move: reg %d, want 1", b.SegReg[vid][2])
	}
	if err := b.Check(); err != nil {
		t.Fatalf("binding illegal after rollback: %v", err)
	}
}
