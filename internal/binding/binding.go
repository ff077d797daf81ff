// Package binding holds the extended-binding-model state the SALSA
// allocator manipulates: operator→FU assignments, per-segment register
// assignments, value copies, pass-through bindings and operand-order
// flags. It provides legality checking and the point-to-point cost
// evaluation the iterative improvement engine optimizes.
//
// The model follows §2 of the paper: every value is divided into
// one-control-step segments; each segment lives in a register; adjacent
// segments in different registers imply a data transfer implemented
// either by a direct register-to-register connection or by an idle
// pass-capable functional unit bound as a No-Op ("pass-through"); a
// value may additionally own copy segments in other registers.
package binding

import (
	"fmt"
	"slices"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// Config carries the cost-function weights (a weighted sum of FU,
// register and interconnect counts, §1 and §4 of the paper).
type Config struct {
	// WfuALU and WfuMul weigh one used FU of each class.
	WfuALU, WfuMul int
	// Wreg weighs one used register.
	Wreg int
	// Wmux weighs one equivalent 2-to-1 multiplexer.
	Wmux int
}

// DefaultConfig returns weights under which interconnect dominates and
// a register is always worth trading for a multiplexer, reproducing the
// paper's storage-vs-interconnect exploration.
func DefaultConfig() Config {
	return Config{WfuALU: 2, WfuMul: 16, Wreg: 1, Wmux: 10}
}

// TransferKey identifies a register-to-register data transfer: the
// write of value V's chain position K into register ToReg (from some
// register holding V at K-1).
type TransferKey struct {
	V     lifetime.ValueID
	K     int
	ToReg int
}

// Binding is one complete allocation over fixed hardware.
type Binding struct {
	A   *lifetime.Analysis
	HW  *datapath.Hardware
	Cfg Config

	// OpFU assigns each arithmetic node an FU index (-1 otherwise).
	OpFU []int
	// OpSwap reverses the operand order of a commutative node (move F3).
	OpSwap []bool
	// SegReg assigns each value's chain positions their primary
	// register: SegReg[v][k].
	SegReg [][]int
	// Copies lists the extra registers holding a value at a chain
	// position (moves R5/R6): Copies[v][k]. Empty is nil at both levels
	// — a value without copies has a nil row, a position without copies
	// a nil slice — so bindings with the same copies are
	// reflect.DeepEqual and copy-free values cost nothing. Index it
	// through CopiesAt.
	Copies [][][]int
	// Pass binds a transfer to a pass-through FU (moves F4/F5).
	Pass map[TransferKey]int

	// inputIndex maps Input node IDs to external port indices.
	inputIndex map[cdfg.NodeID]int
	// outputIndex maps Output node IDs to external port indices.
	outputIndex map[cdfg.NodeID]int
}

// New returns an unassigned binding over the given analysis and
// hardware.
func New(a *lifetime.Analysis, hw *datapath.Hardware, cfg Config) *Binding {
	g := a.Sched.G
	b := &Binding{
		A: a, HW: hw, Cfg: cfg,
		OpFU:        make([]int, len(g.Nodes)),
		OpSwap:      make([]bool, len(g.Nodes)),
		SegReg:      make([][]int, len(a.Values)),
		Copies:      make([][][]int, len(a.Values)),
		Pass:        make(map[TransferKey]int),
		inputIndex:  make(map[cdfg.NodeID]int),
		outputIndex: make(map[cdfg.NodeID]int),
	}
	for i := range b.OpFU {
		b.OpFU[i] = -1
	}
	for i := range a.Values {
		v := &a.Values[i]
		b.SegReg[i] = make([]int, v.Len)
		for k := range b.SegReg[i] {
			b.SegReg[i][k] = -1
		}
	}
	nIn, nOut := 0, 0
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case cdfg.Input:
			b.inputIndex[cdfg.NodeID(i)] = nIn
			nIn++
		case cdfg.Output:
			b.outputIndex[cdfg.NodeID(i)] = nOut
			nOut++
		}
	}
	return b
}

// Clone deep-copies the binding for snapshot/rollback in the move
// engine. The analysis, hardware and port indices are shared (they are
// immutable).
func (b *Binding) Clone() *Binding {
	nb := *b
	nb.OpFU = append([]int(nil), b.OpFU...)
	nb.OpSwap = append([]bool(nil), b.OpSwap...)
	nb.SegReg = make([][]int, len(b.SegReg))
	for i := range b.SegReg {
		nb.SegReg[i] = append([]int(nil), b.SegReg[i]...)
	}
	nb.Copies = make([][][]int, len(b.Copies))
	for v, row := range b.Copies {
		if row == nil {
			continue
		}
		nb.Copies[v] = make([][]int, len(row))
		for k, cs := range row {
			nb.Copies[v][k] = append([]int(nil), cs...) // nil when cs is empty
		}
	}
	nb.Pass = make(map[TransferKey]int, len(b.Pass))
	for k, v := range b.Pass {
		nb.Pass[k] = v
	}
	return &nb
}

// InputIndexOf returns the external port index of an Input node.
func (b *Binding) InputIndexOf(n cdfg.NodeID) int { return b.inputIndex[n] }

// OutputIndexOf returns the external port index of an Output node.
func (b *Binding) OutputIndexOf(n cdfg.NodeID) int { return b.outputIndex[n] }

// CopiesAt returns the copy registers of value v at chain position k,
// nil when there are none. The slice must not be mutated.
func (b *Binding) CopiesAt(v lifetime.ValueID, k int) []int {
	if row := b.Copies[v]; row != nil {
		return row[k]
	}
	return nil
}

// HoldersAt returns the registers holding value v at chain position k:
// the primary register first, then copies in the order they were
// added. The returned slice is freshly allocated.
func (b *Binding) HoldersAt(v lifetime.ValueID, k int) []int {
	copies := b.CopiesAt(v, k)
	out := make([]int, 0, 1+len(copies))
	out = append(out, b.SegReg[v][k])
	out = append(out, copies...)
	return out
}

// HeldIn reports whether value v occupies register r at chain position k.
func (b *Binding) HeldIn(v lifetime.ValueID, k, r int) bool {
	if b.SegReg[v][k] == r {
		return true
	}
	for _, c := range b.CopiesAt(v, k) {
		if c == r {
			return true
		}
	}
	return false
}

// RegOccupancy builds the register×step table of occupying values
// (NoValue when free). It errors if two values claim the same register
// in the same step.
func (b *Binding) RegOccupancy() ([][]lifetime.ValueID, error) {
	occ := make([][]lifetime.ValueID, len(b.HW.Regs))
	for r := range occ {
		occ[r] = make([]lifetime.ValueID, b.A.StorageSteps)
	}
	if err := b.regOccupancyInto(occ); err != nil {
		return nil, err
	}
	return occ, nil
}

// regOccupancyInto fills a caller-owned, correctly-sized occupancy
// table (the transaction layer reuses one buffer across moves).
func (b *Binding) regOccupancyInto(occ [][]lifetime.ValueID) error {
	for r := range occ {
		for t := range occ[r] {
			occ[r][t] = lifetime.NoValue
		}
	}
	claim := func(r, t int, v lifetime.ValueID) error {
		if r < 0 || r >= len(b.HW.Regs) {
			return fmt.Errorf("binding: value %s uses register %d outside budget", b.A.Values[v].Name, r)
		}
		if prev := occ[r][t]; prev != lifetime.NoValue {
			if prev == v {
				return fmt.Errorf("binding: value %s stored twice in R%d at step %d", b.A.Values[v].Name, r, t)
			}
			return fmt.Errorf("binding: R%d at step %d holds both %s and %s", r, t, b.A.Values[prev].Name, b.A.Values[v].Name)
		}
		occ[r][t] = v
		return nil
	}
	for i := range b.A.Values {
		v := &b.A.Values[i]
		for k := 0; k < v.Len; k++ {
			t := v.StepAt(k, b.A.StorageSteps)
			if err := claim(b.SegReg[i][k], t, v.ID); err != nil {
				return err
			}
			for _, c := range b.CopiesAt(v.ID, k) {
				if err := claim(c, t, v.ID); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// FUOccupancy describes what each FU does at each step.
type FUOccupancy struct {
	// Issue[f][t] is the node issuing on FU f at step t (NoNode if none):
	// the initiation-interval window of each bound operator.
	Issue [][]cdfg.NodeID
	// WriteEdge[f][t] marks that an operator on f produces its result at
	// the clock edge ending step t.
	WriteEdge [][]bool
	// PassAt[f][t] records a pass-through bound on f at step t.
	PassAt map[[2]int]TransferKey
}

// FUOccupancy builds the FU usage tables. It errors on overlapping
// operator windows or class mismatches.
func (b *Binding) FUOccupancy() (*FUOccupancy, error) {
	occ := &FUOccupancy{}
	if err := b.fuOccupancyInto(occ); err != nil {
		return nil, err
	}
	return occ, nil
}

// fuOccupancyInto (re)builds the FU usage tables into a caller-owned
// FUOccupancy, resizing its backing arrays only when the hardware or
// schedule dimensions changed — the transaction layer reuses one
// instance across moves.
func (b *Binding) fuOccupancyInto(occ *FUOccupancy) error {
	g := b.A.Sched.G
	s := b.A.Sched
	T := s.Steps
	if occ.PassAt == nil {
		occ.PassAt = make(map[[2]int]TransferKey)
	} else {
		clear(occ.PassAt)
	}
	if len(occ.Issue) != len(b.HW.FUs) {
		occ.Issue = make([][]cdfg.NodeID, len(b.HW.FUs))
		occ.WriteEdge = make([][]bool, len(b.HW.FUs))
	}
	for f := range occ.Issue {
		if len(occ.Issue[f]) != T {
			occ.Issue[f] = make([]cdfg.NodeID, T)
			occ.WriteEdge[f] = make([]bool, T)
		}
		for t := range occ.Issue[f] {
			occ.Issue[f][t] = cdfg.NoNode
			occ.WriteEdge[f][t] = false
		}
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		f := b.OpFU[i]
		if f < 0 || f >= len(b.HW.FUs) {
			return fmt.Errorf("binding: op %s has no FU", n.Name)
		}
		if b.HW.FUs[f].Class != sched.ClassOf(n.Op) {
			return fmt.Errorf("binding: op %s (%s) bound to %s FU %d", n.Name, n.Op, b.HW.FUs[f].Class, f)
		}
		st := s.Start[i]
		for t := st; t < st+s.Delays.IIOf(n.Op); t++ {
			if prev := occ.Issue[f][t]; prev != cdfg.NoNode {
				return fmt.Errorf("binding: FU %d runs both %s and %s at step %d", f, g.Nodes[prev].Name, n.Name, t)
			}
			occ.Issue[f][t] = cdfg.NodeID(i)
		}
		occ.WriteEdge[f][st+s.Delays.Of(n.Op)-1] = true
	}
	//lint:maporder legality is order-free: occupancy writes are keyed and an error fires iff any conflict exists; only the reported pair varies
	for tk, f := range b.Pass {
		t := b.transferStep(tk)
		key := [2]int{f, t}
		if prev, dup := occ.PassAt[key]; dup {
			return fmt.Errorf("binding: FU %d passes two transfers at step %d (%v, %v)", f, t, prev, tk)
		}
		occ.PassAt[key] = tk
	}
	return nil
}

// transferStep returns the step during which a transfer's connections
// are exercised (the step before the destination segment, i.e. the
// write happens at the edge ending it).
func (b *Binding) transferStep(tk TransferKey) int {
	v := &b.A.Values[tk.V]
	return v.StepAt(tk.K-1, b.A.StorageSteps)
}

// FUPassFree reports whether FU f can carry a pass-through at step t
// under the occupancy tables: no operator issues there, no operator
// writes its result at the edge ending t, no other pass-through is
// bound there, and the unit is pass-capable.
func (b *Binding) FUPassFree(occ *FUOccupancy, f, t int, self TransferKey) bool {
	if !b.HW.FUs[f].CanPass {
		return false
	}
	if t < 0 || t >= b.A.Sched.Steps {
		return false
	}
	if occ.Issue[f][t] != cdfg.NoNode || occ.WriteEdge[f][t] {
		return false
	}
	if tk, busy := occ.PassAt[[2]int{f, t}]; busy && tk != self {
		return false
	}
	return true
}

// Check validates every legality invariant of the binding.
func (b *Binding) Check() error {
	g := b.A.Sched.G
	if _, err := b.RegOccupancy(); err != nil {
		return err
	}
	occ, err := b.FUOccupancy()
	if err != nil {
		return err
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if b.OpSwap[i] && !n.Op.Commutative() {
			return fmt.Errorf("binding: operand reverse on non-commutative op %s", n.Name)
		}
	}
	//lint:maporder legality is order-free: the verdict (nil vs error) is the same for every visit order; only which violation is reported varies
	for tk, f := range b.Pass {
		if err := b.checkTransfer(tk); err != nil {
			return err
		}
		t := b.transferStep(tk)
		if !b.HW.FUs[f].CanPass {
			return fmt.Errorf("binding: pass-through on non-pass FU %d", f)
		}
		if occ.Issue[f][t] != cdfg.NoNode || occ.WriteEdge[f][t] {
			return fmt.Errorf("binding: pass-through %v on busy FU %d at step %d", tk, f, t)
		}
	}
	return nil
}

// checkTransfer verifies that tk denotes a real transfer in the current
// register assignment.
func (b *Binding) checkTransfer(tk TransferKey) error {
	v := &b.A.Values[tk.V]
	if tk.K < 1 || tk.K >= v.Len {
		return fmt.Errorf("binding: transfer %v out of value range", tk)
	}
	if !b.HeldIn(tk.V, tk.K, tk.ToReg) {
		return fmt.Errorf("binding: transfer %v targets a register not holding the value", tk)
	}
	if b.HeldIn(tk.V, tk.K-1, tk.ToReg) {
		return fmt.Errorf("binding: %v is not a transfer (value already in R%d)", tk, tk.ToReg)
	}
	return nil
}

// Transfers enumerates every register-to-register transfer implied by
// the current segment assignment, in deterministic order. Each entry is
// a candidate for pass-through binding (move F4).
func (b *Binding) Transfers() []TransferKey {
	var out []TransferKey
	for i := range b.A.Values {
		v := &b.A.Values[i]
		for k := 1; k < v.Len; k++ {
			for _, r := range b.HoldersAt(v.ID, k) {
				if !b.HeldIn(v.ID, k-1, r) {
					out = append(out, TransferKey{v.ID, k, r})
				}
			}
		}
	}
	return out
}

// AddCopy records a copy of value v's chain position k in register r.
// Legality (register free) is the caller's responsibility.
func (b *Binding) AddCopy(v lifetime.ValueID, k, r int) {
	b.insertCopyAt(v, k, len(b.CopiesAt(v, k)), r)
}

// RemoveCopy deletes the copy of (v, k) in register r, reporting whether
// it existed.
func (b *Binding) RemoveCopy(v lifetime.ValueID, k, r int) bool {
	for i, c := range b.CopiesAt(v, k) {
		if c == r {
			b.dropCopyAt(v, k, i)
			return true
		}
	}
	return false
}

// dropCopyAt deletes the i-th copy of (v, k), keeping an emptied
// position, and an emptied row, nil.
func (b *Binding) dropCopyAt(v lifetime.ValueID, k, i int) {
	row := b.Copies[v]
	cs := append(row[k][:i], row[k][i+1:]...)
	if len(cs) > 0 {
		row[k] = cs
		return
	}
	row[k] = nil
	for _, cs := range row {
		if cs != nil {
			return
		}
	}
	b.Copies[v] = nil
}

// insertCopyAt makes register r the i-th copy of (v, k).
func (b *Binding) insertCopyAt(v lifetime.ValueID, k, i, r int) {
	if b.Copies[v] == nil {
		b.Copies[v] = make([][]int, len(b.SegReg[v]))
	}
	b.Copies[v][k] = slices.Insert(b.Copies[v][k], i, r)
}

// NumCopies returns the total number of copy segments.
func (b *Binding) NumCopies() int {
	n := 0
	for _, row := range b.Copies {
		for _, cs := range row {
			n += len(cs)
		}
	}
	return n
}
