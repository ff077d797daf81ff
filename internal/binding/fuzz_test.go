package binding

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// buildRandomBound constructs a random DAG, schedules it, and produces
// a trivially legal binding (ops first-fit, values first-fit) to fuzz
// against.
func buildRandomBound(seed int64) (*Binding, bool) {
	rng := rand.New(rand.NewSource(seed))
	g := cdfg.New("fuzz")
	var pool []cdfg.NodeID
	for i := 0; i < 3+rng.Intn(3); i++ {
		pool = append(pool, g.Input(""))
	}
	n := 4 + rng.Intn(16)
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))]
		bb := pool[rng.Intn(len(pool))]
		var id cdfg.NodeID
		switch rng.Intn(3) {
		case 0:
			id = g.Add("", a, bb)
		case 1:
			id = g.Sub("", a, bb)
		default:
			id = g.Mul("", a, bb)
		}
		pool = append(pool, id)
	}
	g.Output("o", pool[len(pool)-1])

	d := cdfg.DefaultDelays(rng.Intn(2) == 0)
	s, lim := sched.MinFUSchedule(g, d, g.CriticalPath(d)+rng.Intn(4))
	if s == nil {
		return nil, false
	}
	a, err := lifetime.Analyze(s)
	if err != nil {
		return nil, false
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1+rng.Intn(2), inputs, true)
	b := New(a, hw, DefaultConfig())

	// First-fit FU binding.
	busy := make([][]bool, len(hw.FUs))
	for f := range busy {
		busy[f] = make([]bool, s.Steps)
	}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if !nd.Op.IsArith() {
			continue
		}
		ii := d.IIOf(nd.Op)
		for _, f := range hw.FUsOfClass(sched.ClassOf(nd.Op)) {
			ok := true
			for t := s.Start[i]; t < s.Start[i]+ii; t++ {
				if busy[f][t] {
					ok = false
					break
				}
			}
			if ok {
				b.OpFU[i] = f
				for t := s.Start[i]; t < s.Start[i]+ii; t++ {
					busy[f][t] = true
				}
				break
			}
		}
	}
	// First-fit piecewise register binding.
	occ := make([][]bool, len(hw.Regs))
	for r := range occ {
		occ[r] = make([]bool, a.StorageSteps)
	}
	for vi := range a.Values {
		v := &a.Values[vi]
		for k := 0; k < v.Len; k++ {
			t := v.StepAt(k, a.StorageSteps)
			for r := range occ {
				if !occ[r][t] {
					b.SegReg[vi][k] = r
					occ[r][t] = true
					break
				}
			}
		}
	}
	if b.Check() != nil {
		return nil, false
	}
	return b, true
}

func TestPropertyEvalDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		b, ok := buildRandomBound(seed)
		if !ok {
			return true // skip degenerate draws
		}
		_, c1, err1 := b.Eval()
		_, c2, err2 := b.Eval()
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPrunePassIdempotent: inside one transaction, random
// value splits get pass-through bindings, the split values then move
// home where they can, so their transfers (and passes) go stale, PrunePass
// removes them, a second PrunePass right after finds nothing, and
// rolling the transaction back restores the binding exactly.
func TestPropertyPrunePassIdempotent(t *testing.T) {
	pruned := 0
	f := func(seed int64) bool {
		b, ok := buildRandomBound(seed)
		if !ok {
			return true
		}
		tx, err := NewTx(b)
		if err != nil {
			return false
		}
		pre := b.Clone()
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		tx.Begin()
		occ, err := tx.Occ()
		if err != nil {
			return false
		}
		// Split random values: move the tail of the chain into a
		// register free over it, creating a transfer. occ is the live
		// grid, so it sees each move.
		var split []lifetime.ValueID
		for v := range b.A.Values {
			val := &b.A.Values[v]
			if val.Len < 2 || rng.Intn(2) == 0 {
				continue
			}
			for r := range b.HW.Regs {
				free := r != b.SegReg[v][0]
				for k := 1; free && k < val.Len; k++ {
					free = occ[r][val.StepAt(k, b.A.StorageSteps)] == lifetime.NoValue
				}
				if !free {
					continue
				}
				for k := 1; k < val.Len; k++ {
					tx.SetSegReg(val.ID, k, r)
				}
				split = append(split, val.ID)
				break
			}
		}
		for _, tk := range b.Transfers() {
			fo, err := tx.FUOcc()
			if err != nil {
				return false
			}
			ts := b.A.Values[tk.V].StepAt(tk.K-1, b.A.StorageSteps)
			for f := range b.HW.FUs {
				if b.FUPassFree(fo, f, ts, tk) {
					tx.SetPass(tk, f)
					break
				}
			}
		}
		// Move the split values home where it is still free: their
		// passes go stale.
		for _, v := range split {
			val, home := &b.A.Values[v], b.SegReg[v][0]
			free := true
			for k := 1; free && k < val.Len; k++ {
				free = occ[home][val.StepAt(k, b.A.StorageSteps)] == lifetime.NoValue
			}
			if !free {
				continue
			}
			for k := 1; k < val.Len; k++ {
				tx.SetSegReg(v, k, home)
			}
		}
		pruned += tx.PrunePass()
		if tx.PrunePass() != 0 || b.Check() != nil {
			return false
		}
		tx.Rollback()
		return reflect.DeepEqual(b, pre) && tx.Audit() == nil
	}
	// A fixed source keeps the vacuity check below from flaking.
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if pruned == 0 {
		t.Error("no stale pass binding was ever pruned; the property is vacuous")
	}
}

func TestPropertyCostComponents(t *testing.T) {
	f := func(seed int64) bool {
		b, ok := buildRandomBound(seed)
		if !ok {
			return true
		}
		ic, c, err := b.Eval()
		if err != nil {
			return false
		}
		if c.Total != c.FUArea+b.Cfg.Wreg*c.RegsUsed+b.Cfg.Wmux*c.MuxCost {
			return false
		}
		if c.MuxCost != ic.MuxCost() {
			return false
		}
		if c.RegsUsed > len(b.HW.Regs) || c.FUsUsed > len(b.HW.FUs) {
			return false
		}
		return ic.MergedMuxCost() <= c.MuxCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
