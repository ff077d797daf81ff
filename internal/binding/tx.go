package binding

import (
	"errors"
	"fmt"
	"slices"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// Tx is a move transaction over one Binding: the move layer mutates the
// binding in place through Tx's typed mutators, each of which appends an
// undo record and marks the interconnect sinks it perturbs (the
// affected-set). DeltaCost then recomputes only the dirty sinks —
// replaying their use-events exactly as Eval would — and Rollback
// restores both the binding and the cost tables of a rejected move.
//
// The equivalence delta == full Eval holds because Eval's greedy source
// resolution is sink-local: pickHolder only ever queries the net of the
// sink currently being extended, so a sink's final fanin is a function
// of the ordered use-events targeting that sink alone. A mutator marks
// every sink whose event sequence its change can alter; unmarked sinks
// keep their event sequences and therefore their exact fanins.
//
// Tx also owns the dense search state derived from the binding — the
// register occupancy grid, the per-FU operator lists and the use
// counts — and keeps it current under every mutator and its undo, so
// legality probes and sink replays read it instead of rescanning.
type Tx struct {
	b *Binding

	ct *datapath.CostTable
	ns datapath.NetScratch

	// fuOps lists, per FU, the bound arithmetic nodes in node order (the
	// order Eval visits their operand reads); fuPass counts the
	// pass-throughs bound per FU and valPass those carrying each value's
	// transfers. regCnt counts segments (primary and copies) per
	// register. The derived terms mirror costOf.
	fuOps    [][]cdfg.NodeID
	fuPass   []int
	valPass  []int
	regCnt   []int
	fusUsed  int
	fuArea   int
	regsUsed int

	// occ is the live register×step occupancy grid: occ[r][t] is the
	// value holding register r at step t, NoValue when the cell is free
	// or over-claimed. claims and claimSum (flat, r*StorageSteps+t)
	// count each cell's claims and sum the claimants' IDs, so a cell
	// brought back to one claim — by a later mutation or a rollback —
	// recovers its holder without a rescan. conflicts counts cells with
	// two or more claims, oob claims of registers outside the budget;
	// the grid is exact and the assignment legal iff both are zero.
	occ       [][]lifetime.ValueID
	claims    []int32
	claimSum  []int
	conflicts int
	oob       int

	dirty     []bool
	dirtyList []int

	undo     []undoRec
	costUndo []costRec
	inMove   bool

	fuocc   FUOccupancy
	fuoccOK bool

	// outNode inverts the binding's outputIndex.
	outNode []cdfg.NodeID

	passTmp []passEv
	segTmp  []segPos
}

type undoOp int

const (
	undoOpFU undoOp = iota
	undoSwap
	undoSegReg
	undoAddCopy
	undoRemoveCopy
	undoSetPass
	undoNewPass
	undoDelPass
)

// undoRec is one reversible mutation. The integer operands are
// interpreted per op; tk only applies to the pass records.
type undoRec struct {
	op         undoOp
	a, b, c, d int
	tk         TransferKey
}

// costRec remembers one sink's pre-move contribution overwritten by
// DeltaCost.
type costRec struct {
	idx int
	old int
}

type passEv struct {
	tk  TransferKey
	pos int
}

// segPos is one (value, chain position) pair held by a register,
// recovered from the occupancy grid during register-sink replay.
type segPos struct {
	v lifetime.ValueID
	k int
}

// ErrRegConflict is the error Occ and OccLegal return while two
// segments claim one register at one step, or a segment uses a
// register outside the budget. Binding.RegOccupancy and Check name the
// values and the register instead.
var ErrRegConflict = errors.New("binding: register occupancy conflict")

// NewTx builds an incremental transaction over b, evaluating it once to
// seed the cost tables.
func NewTx(b *Binding) (*Tx, error) {
	t := &Tx{}
	if err := t.Reset(b); err != nil {
		return nil, err
	}
	return t, nil
}

// B returns the binding under transaction.
func (t *Tx) B() *Binding { return t.b }

// Reset re-seeds the transaction from b's current state: the derived
// state is rebuilt and the per-sink cost table is filled from one full
// evaluation. The search calls it once per trial restart, so its cost
// amortizes over the trial's moves.
func (t *Tx) Reset(b *Binding) error {
	t.b = b
	t.ensureShape()
	t.fuoccOK = false
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
	t.inMove = false
	t.scan()

	ic, _, err := b.Eval()
	if err != nil {
		return err
	}
	t.ct.Zero()
	for idx := 0; idx < t.ct.Len(); idx++ {
		if fan := ic.FaninOf(t.ct.SinkOf(idx)); fan > 1 {
			t.ct.Set(idx, fan-1)
		}
	}
	return nil
}

// scan rebuilds the derived state — use counts, operator lists and the
// occupancy grid — from the binding alone.
func (t *Tx) scan() {
	b := t.b
	for f := range t.fuOps {
		t.fuOps[f] = t.fuOps[f][:0]
		t.fuPass[f] = 0
	}
	clear(t.valPass)
	clear(t.regCnt)
	t.fusUsed, t.fuArea, t.regsUsed = 0, 0, 0
	for r := range t.occ {
		for c := range t.occ[r] {
			t.occ[r][c] = lifetime.NoValue
		}
	}
	clear(t.claims)
	clear(t.claimSum)
	t.conflicts, t.oob = 0, 0

	g := b.A.Sched.G
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			if f := b.OpFU[i]; f >= 0 {
				t.addOp(f, cdfg.NodeID(i))
			}
		}
	}
	//lint:maporder keyed count increments; the totals are order-free
	for tk, f := range b.Pass {
		t.incPass(f)
		t.valPass[tk.V]++
	}
	for i := range b.SegReg {
		v := lifetime.ValueID(i)
		for k, r := range b.SegReg[i] {
			t.claim(v, k, r)
			for _, c := range b.CopiesAt(v, k) {
				t.claim(v, k, c)
			}
		}
	}
}

// ensureShape sizes the reusable tables to the binding's hardware and
// schedule dimensions, reallocating only when they changed.
func (t *Tx) ensureShape() {
	b := t.b
	nF, nR, nO := len(b.HW.FUs), len(b.HW.Regs), len(b.outputIndex)
	if t.ct == nil || t.ct.NumFUs != nF || t.ct.NumRegs != nR || t.ct.NumOuts != nO {
		t.ct = datapath.NewCostTable(nF, nR, nO)
		t.dirty = make([]bool, t.ct.Len())
		t.dirtyList = t.dirtyList[:0]
		t.fuOps = make([][]cdfg.NodeID, nF)
		t.fuPass = make([]int, nF)
		t.regCnt = make([]int, nR)
	}
	if ss := b.A.StorageSteps; len(t.occ) != nR || len(t.claims) != nR*ss {
		t.occ = make([][]lifetime.ValueID, nR)
		for r := range t.occ {
			t.occ[r] = make([]lifetime.ValueID, ss)
		}
		t.claims = make([]int32, nR*ss)
		t.claimSum = make([]int, nR*ss)
	}
	if len(t.valPass) != len(b.A.Values) {
		t.valPass = make([]int, len(b.A.Values))
	}
	if len(t.outNode) != nO {
		t.outNode = make([]cdfg.NodeID, nO)
	}
	//lint:maporder keyed writes into a dense inverse table; the final contents are order-free
	for n, idx := range b.outputIndex {
		t.outNode[idx] = n
	}
}

// Begin opens a move: the undo log and cost journal restart empty.
func (t *Tx) Begin() {
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	t.inMove = true
}

// Commit accepts the move: the in-place state and updated cost tables
// become the new baseline and the dirty set is retired.
func (t *Tx) Commit() {
	t.inMove = false
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// Rollback rejects the move: cost entries overwritten by DeltaCost are
// restored from the journal and the binding mutations are unwound in
// reverse order, re-adjusting the use counts symmetrically.
func (t *Tx) Rollback() {
	t.inMove = false
	for i := len(t.costUndo) - 1; i >= 0; i-- {
		cu := t.costUndo[i]
		t.ct.Set(cu.idx, cu.old)
	}
	t.costUndo = t.costUndo[:0]
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.revert(&t.undo[i])
	}
	t.undo = t.undo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// revert unwinds one undo record.
func (t *Tx) revert(u *undoRec) {
	b := t.b
	switch u.op {
	case undoOpFU:
		op, old := cdfg.NodeID(u.a), u.b
		if cur := b.OpFU[op]; cur >= 0 {
			t.dropOp(cur, op)
		}
		if old >= 0 {
			t.addOp(old, op)
		}
		b.OpFU[op] = old
		t.fuoccOK = false
	case undoSwap:
		b.OpSwap[u.a] = !b.OpSwap[u.a]
	case undoSegReg:
		v, k, old := lifetime.ValueID(u.a), u.b, u.c
		t.release(v, k, b.SegReg[v][k])
		t.claim(v, k, old)
		b.SegReg[v][k] = old
	case undoAddCopy:
		v, k, r, pos := lifetime.ValueID(u.a), u.b, u.c, u.d
		b.dropCopyAt(v, k, pos)
		t.release(v, k, r)
	case undoRemoveCopy:
		v, k, r, pos := lifetime.ValueID(u.a), u.b, u.c, u.d
		b.insertCopyAt(v, k, pos, r)
		t.claim(v, k, r)
	case undoSetPass:
		old := u.a
		t.decPass(b.Pass[u.tk])
		t.incPass(old)
		b.Pass[u.tk] = old
		t.fuoccOK = false
	case undoNewPass:
		t.decPass(b.Pass[u.tk])
		t.valPass[u.tk.V]--
		delete(b.Pass, u.tk)
		t.fuoccOK = false
	case undoDelPass:
		b.Pass[u.tk] = u.a
		t.incPass(u.a)
		t.valPass[u.tk.V]++
		t.fuoccOK = false
	}
}

func (t *Tx) record(u undoRec) {
	if t.inMove {
		t.undo = append(t.undo, u)
	}
}

// --- use-count maintenance (mirrors costOf's used sets) ---

func (t *Tx) fuWeight(f int) int {
	if t.b.HW.FUs[f].Class == sched.ClassMul {
		return t.b.Cfg.WfuMul
	}
	return t.b.Cfg.WfuALU
}

// addOp lists op on FU f, keeping the list in node order.
func (t *Tx) addOp(f int, op cdfg.NodeID) {
	if len(t.fuOps[f])+t.fuPass[f] == 0 {
		t.fusUsed++
		t.fuArea += t.fuWeight(f)
	}
	ops := t.fuOps[f]
	i, _ := slices.BinarySearch(ops, op)
	t.fuOps[f] = slices.Insert(ops, i, op)
}

// dropOp unlists op from FU f.
func (t *Tx) dropOp(f int, op cdfg.NodeID) {
	ops := t.fuOps[f]
	if i, found := slices.BinarySearch(ops, op); found {
		t.fuOps[f] = slices.Delete(ops, i, i+1)
	}
	if len(t.fuOps[f])+t.fuPass[f] == 0 {
		t.fusUsed--
		t.fuArea -= t.fuWeight(f)
	}
}

func (t *Tx) incPass(f int) {
	if len(t.fuOps[f])+t.fuPass[f] == 0 {
		t.fusUsed++
		t.fuArea += t.fuWeight(f)
	}
	t.fuPass[f]++
}

func (t *Tx) decPass(f int) {
	t.fuPass[f]--
	if len(t.fuOps[f])+t.fuPass[f] == 0 {
		t.fusUsed--
		t.fuArea -= t.fuWeight(f)
	}
}

func (t *Tx) incReg(r int) {
	if t.regCnt[r] == 0 {
		t.regsUsed++
	}
	t.regCnt[r]++
}

func (t *Tx) decReg(r int) {
	t.regCnt[r]--
	if t.regCnt[r] == 0 {
		t.regsUsed--
	}
}

// --- occupancy grid maintenance (mirrors regOccupancyInto's claims) ---

// claim records value v's chain position k in register r, in the grid
// and in the register's use count.
func (t *Tx) claim(v lifetime.ValueID, k, r int) {
	if r < 0 || r >= len(t.occ) {
		t.oob++
		return
	}
	t.incReg(r)
	step := t.b.A.Values[v].StepAt(k, t.b.A.StorageSteps)
	c := r*t.b.A.StorageSteps + step
	t.claims[c]++
	t.claimSum[c] += int(v)
	if t.claims[c] == 2 {
		t.conflicts++
	}
	t.settle(r, step, c)
}

// release withdraws a claim made by claim(v, k, r).
func (t *Tx) release(v lifetime.ValueID, k, r int) {
	if r < 0 || r >= len(t.occ) {
		t.oob--
		return
	}
	t.decReg(r)
	step := t.b.A.Values[v].StepAt(k, t.b.A.StorageSteps)
	c := r*t.b.A.StorageSteps + step
	t.claims[c]--
	t.claimSum[c] -= int(v)
	if t.claims[c] == 1 {
		t.conflicts--
	}
	t.settle(r, step, c)
}

// settle derives cell (r, step)'s holder from its claim count and sum.
func (t *Tx) settle(r, step, c int) {
	if t.claims[c] == 1 {
		t.occ[r][step] = lifetime.ValueID(t.claimSum[c])
	} else {
		t.occ[r][step] = lifetime.NoValue
	}
}

// --- affected-set marking ---

func (t *Tx) markIdx(idx int) {
	if idx < 0 || t.dirty[idx] {
		return
	}
	t.dirty[idx] = true
	t.dirtyList = append(t.dirtyList, idx)
}

func (t *Tx) markReg(r int) {
	if r >= 0 && r < t.ct.NumRegs {
		t.markIdx(2*t.ct.NumFUs + r)
	}
}

func (t *Tx) markFUPorts(f int) {
	if f >= 0 && f < t.ct.NumFUs {
		t.markIdx(2 * f)
		t.markIdx(2*f + 1)
	}
}

// markBirth marks the registers loaded at a value's birth — the sinks
// seeing the producer FU as a source.
func (t *Tx) markBirth(v lifetime.ValueID) {
	if v == lifetime.NoValue {
		return
	}
	t.markReg(t.b.SegReg[v][0])
	for _, c := range t.b.CopiesAt(v, 0) {
		t.markReg(c)
	}
}

// markValue marks every sink whose event sequence can depend on value
// v's holder sets: the FU ports and output ports reading it, every
// register holding it (primary or copy, any position), and the input
// ports of pass-through FUs carrying its transfers.
func (t *Tx) markValue(v lifetime.ValueID) {
	if v == lifetime.NoValue {
		return
	}
	b := t.b
	val := &b.A.Values[v]
	for _, rd := range val.Reads {
		if rd.Port < 0 {
			t.markIdx(2*t.ct.NumFUs + t.ct.NumRegs + b.outputIndex[rd.Consumer])
		} else {
			t.markFUPorts(b.OpFU[rd.Consumer])
		}
	}
	for k := 0; k < val.Len; k++ {
		t.markReg(b.SegReg[v][k])
		for _, c := range b.CopiesAt(v, k) {
			t.markReg(c)
		}
	}
	if t.valPass[v] == 0 {
		return
	}
	//lint:maporder set insertion into the dirty set; membership is order-free
	for tk, f := range b.Pass {
		if tk.V == v {
			t.markIdx(2 * f)
		}
	}
}

// --- mutators ---

// SetOpFU rebinds arithmetic node op to FU f (moves F1/F2).
func (t *Tx) SetOpFU(op cdfg.NodeID, f int) {
	b := t.b
	old := b.OpFU[op]
	if old == f {
		return
	}
	t.record(undoRec{op: undoOpFU, a: int(op), b: old})
	if old >= 0 {
		t.dropOp(old, op)
	}
	if f >= 0 {
		t.addOp(f, op)
	}
	b.OpFU[op] = f
	t.fuoccOK = false
	t.markFUPorts(old)
	t.markFUPorts(f)
	t.markBirth(b.A.ValueOf[op])
}

// FlipSwap reverses the operand order of commutative node op (move F3).
func (t *Tx) FlipSwap(op cdfg.NodeID) {
	b := t.b
	t.record(undoRec{op: undoSwap, a: int(op)})
	b.OpSwap[op] = !b.OpSwap[op]
	t.markFUPorts(b.OpFU[op])
}

// SetSegReg moves value v's chain position k to register r.
func (t *Tx) SetSegReg(v lifetime.ValueID, k, r int) {
	b := t.b
	old := b.SegReg[v][k]
	if old == r {
		return
	}
	t.record(undoRec{op: undoSegReg, a: int(v), b: k, c: old})
	t.release(v, k, old)
	t.claim(v, k, r)
	b.SegReg[v][k] = r
	t.markReg(old)
	t.markReg(r)
	t.markValue(v)
}

// AddCopy stores a copy of (v, k) in register r (move R5).
func (t *Tx) AddCopy(v lifetime.ValueID, k, r int) {
	b := t.b
	t.record(undoRec{op: undoAddCopy, a: int(v), b: k, c: r, d: len(b.CopiesAt(v, k))})
	b.AddCopy(v, k, r)
	t.claim(v, k, r)
	t.markReg(r)
	t.markValue(v)
}

// RemoveCopy deletes the copy of (v, k) in register r (move R6),
// reporting whether it existed.
func (t *Tx) RemoveCopy(v lifetime.ValueID, k, r int) bool {
	b := t.b
	for i, c := range b.CopiesAt(v, k) {
		if c != r {
			continue
		}
		t.record(undoRec{op: undoRemoveCopy, a: int(v), b: k, c: r, d: i})
		b.dropCopyAt(v, k, i)
		t.release(v, k, r)
		t.markReg(r)
		t.markValue(v)
		return true
	}
	return false
}

// SetPass binds transfer tk to pass-capable FU f (move F4).
func (t *Tx) SetPass(tk TransferKey, f int) {
	b := t.b
	old, existed := b.Pass[tk]
	if existed && old == f {
		return
	}
	if existed {
		t.record(undoRec{op: undoSetPass, a: old, tk: tk})
		t.decPass(old)
		t.markIdx(2 * old)
	} else {
		t.record(undoRec{op: undoNewPass, tk: tk})
		t.valPass[tk.V]++
	}
	t.incPass(f)
	b.Pass[tk] = f
	t.fuoccOK = false
	t.markIdx(2 * f)
	t.markReg(tk.ToReg)
}

// UnbindPass removes the pass-through binding of tk (move F5),
// reporting whether it existed.
func (t *Tx) UnbindPass(tk TransferKey) bool {
	b := t.b
	f, ok := b.Pass[tk]
	if !ok {
		return false
	}
	t.record(undoRec{op: undoDelPass, a: f, tk: tk})
	t.decPass(f)
	t.valPass[tk.V]--
	delete(b.Pass, tk)
	t.fuoccOK = false
	t.markIdx(2 * f)
	t.markReg(tk.ToReg)
	return true
}

// PrunePass removes pass-through bindings whose transfer no longer
// exists or whose FU is no longer free — called after register or FU
// moves invalidate them — with undo logging and dirty marking. It
// returns the number pruned.
func (t *Tx) PrunePass() int {
	occ, err := t.FUOcc()
	if err != nil {
		// Leave pruning to Check; occupancy conflicts are a bug upstream.
		return 0
	}
	n := 0
	//lint:maporder the pruned set is determined against one occupancy snapshot and is order-free
	for tk, f := range t.b.Pass {
		bad := t.b.checkTransfer(tk) != nil
		if !bad {
			step := t.b.transferStep(tk)
			if !t.b.FUPassFree(occ, f, step, tk) {
				bad = true
			}
		}
		if bad {
			t.UnbindPass(tk)
			n++
		}
	}
	return n
}

// --- occupancy ---

// Occ returns the live register occupancy grid, the table
// Binding.RegOccupancy would build for the current state. The grid is
// owned by the transaction and kept current by every mutation and
// rollback, so a caller holding it sees each mutation as it happens;
// callers must not write it. On a conflict it returns ErrRegConflict
// (Binding.RegOccupancy and Check report the clashing values).
func (t *Tx) Occ() ([][]lifetime.ValueID, error) {
	if err := t.OccLegal(); err != nil {
		return nil, err
	}
	return t.occ, nil
}

// OccLegal reports whether the current register assignment is
// conflict-free — the transactional form of the movers' RegOccupancy
// legality probe — returning ErrRegConflict when it is not.
func (t *Tx) OccLegal() error {
	if t.conflicts != 0 || t.oob != 0 {
		return ErrRegConflict
	}
	return nil
}

// Audit cross-checks the incrementally maintained state against fresh
// scans of the binding: OccLegal must fail exactly when
// Binding.RegOccupancy does and, when legal, Occ must equal its table
// cell for cell; the claim counts, operator lists and use counts must
// equal a rebuild from scratch. It is an oracle for tests and
// Options.Paranoid, not for the search loop.
func (t *Tx) Audit() error {
	ref, refErr := t.b.RegOccupancy()
	occ, err := t.Occ()
	switch {
	case (refErr == nil) != (err == nil):
		return fmt.Errorf("binding: occupancy grid legality %v, full scan %v", err, refErr)
	case err == nil && !slices.EqualFunc(occ, ref, slices.Equal[[]lifetime.ValueID]):
		return errors.New("binding: occupancy grid differs from RegOccupancy")
	}
	fresh := &Tx{b: t.b}
	fresh.ensureShape()
	fresh.scan()
	switch {
	case !slices.Equal(t.claims, fresh.claims) || !slices.Equal(t.claimSum, fresh.claimSum) ||
		t.conflicts != fresh.conflicts || t.oob != fresh.oob:
		return errors.New("binding: occupancy claim counts differ from a fresh scan")
	case !slices.EqualFunc(t.fuOps, fresh.fuOps, slices.Equal[[]cdfg.NodeID]):
		return fmt.Errorf("binding: per-FU operator lists %v, fresh scan %v", t.fuOps, fresh.fuOps)
	case !slices.Equal(t.valPass, fresh.valPass) || !slices.Equal(t.fuPass, fresh.fuPass):
		return fmt.Errorf("binding: pass counts per value %v and per FU %v, fresh scan %v and %v",
			t.valPass, t.fuPass, fresh.valPass, fresh.fuPass)
	case !slices.Equal(t.regCnt, fresh.regCnt) || t.fusUsed != fresh.fusUsed ||
		t.fuArea != fresh.fuArea || t.regsUsed != fresh.regsUsed:
		return errors.New("binding: use counts differ from a fresh scan")
	}
	return nil
}

// FUOcc returns the FU occupancy of the current state, rebuilding the
// reused buffer only when an FU or pass-through mutation invalidated
// it. The returned table aliases that buffer until the next
// mutation-then-FUOcc sequence.
func (t *Tx) FUOcc() (*FUOccupancy, error) {
	if !t.fuoccOK {
		if err := t.b.fuOccupancyInto(&t.fuocc); err != nil {
			return nil, err
		}
		t.fuoccOK = true
	}
	return &t.fuocc, nil
}

// --- incremental cost ---

// Cost assembles the current cost from the incrementally maintained
// terms. It is only meaningful on an incremental Tx whose dirty sinks
// have been replayed (i.e. after DeltaCost or on a clean baseline).
func (t *Tx) Cost() Cost {
	c := Cost{
		FUsUsed:  t.fusUsed,
		FUArea:   t.fuArea,
		RegsUsed: t.regsUsed,
		MuxCost:  t.ct.Total(),
	}
	c.Total = c.FUArea + t.b.Cfg.Wreg*c.RegsUsed + t.b.Cfg.Wmux*c.MuxCost
	return c
}

// DeltaCost replays every dirty sink against the mutated binding,
// journaling the overwritten contributions, and returns the move's
// resulting cost. An error reproduces exactly the error a full Eval of
// the mutated binding would return (a sink needing two sources in one
// step).
func (t *Tx) DeltaCost() (Cost, error) {
	for _, idx := range t.dirtyList {
		c, err := t.replaySink(idx)
		if err != nil {
			return Cost{}, err
		}
		old := t.ct.Set(idx, c)
		t.costUndo = append(t.costUndo, costRec{idx: idx, old: old})
	}
	return t.Cost(), nil
}

// replaySink rebuilds one sink's fanin from scratch by replaying its
// use-events in Eval's global order and returns its mux contribution.
func (t *Tx) replaySink(idx int) (int, error) {
	sink := t.ct.SinkOf(idx)
	ns := &t.ns
	ns.Reset()
	var err error
	switch sink.Kind {
	case datapath.SinkFUPort:
		err = t.replayFUPort(sink, ns)
	case datapath.SinkReg:
		// The occupancy grid inverts HeldIn: one pass over this
		// register's column recovers every (value, position) it holds,
		// replacing the all-values HeldIn scan with O(StorageSteps)
		// array reads. While some cell is over-claimed — which full
		// Eval does not detect — the grid no longer lists every holder,
		// so fall back to the HeldIn-based replay and keep error
		// behavior byte-identical to full Eval.
		if t.conflicts == 0 {
			err = t.replayRegOcc(sink, ns)
		} else {
			err = t.replayReg(sink, ns)
		}
	case datapath.SinkOutput:
		err = t.replayOutput(sink, ns)
	}
	if err != nil {
		return 0, err
	}
	return ns.MuxCost(), nil
}

// pickHolderScratch mirrors Eval's pickHolder against the scratch net:
// prefer a holder already connected to the sink, else the primary.
func (t *Tx) pickHolderScratch(v lifetime.ValueID, k int, ns *datapath.NetScratch) int {
	b := t.b
	primary := b.SegReg[v][k]
	if ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: primary}) {
		return primary
	}
	for _, c := range b.CopiesAt(v, k) {
		if ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: c}) {
			return c
		}
	}
	return primary
}

// operandSrc mirrors Eval's operandSource with scratch-net resolution.
func (t *Tx) operandSrc(arg cdfg.NodeID, step int, ns *datapath.NetScratch) (datapath.Source, error) {
	b := t.b
	g := b.A.Sched.G
	an := &g.Nodes[arg]
	switch {
	case an.Op == cdfg.Const:
		return datapath.Source{Kind: datapath.SrcConst, Index: int(arg)}, nil
	case an.Op == cdfg.Input && b.A.ValueOf[arg] == lifetime.NoValue:
		return datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[arg]}, nil
	default:
		vid := b.A.ValueOf[arg]
		if vid == lifetime.NoValue {
			return datapath.Source{}, fmt.Errorf("binding: node %s is not a storage value", an.Name)
		}
		v := &b.A.Values[vid]
		k, ok := v.LiveAt(step, b.A.StorageSteps)
		if !ok {
			return datapath.Source{}, fmt.Errorf("binding: %s read at step %d outside live range", v.Name, step)
		}
		r := t.pickHolderScratch(vid, k, ns)
		if r < 0 {
			return datapath.Source{}, fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k)
		}
		return datapath.Source{Kind: datapath.SrcReg, Index: r}, nil
	}
}

// replayFUPort replays one FU input port: operand reads of the ops
// bound to the unit in node order (Eval's first phase), then — on port
// 0 — pass-through reads in Eval's value/position order.
func (t *Tx) replayFUPort(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	g := b.A.Sched.G
	s := b.A.Sched
	f, port := sink.Index, sink.Port
	for _, op := range t.fuOps[f] {
		argPort := port
		if b.OpSwap[op] {
			argPort = 1 - port
		}
		step := s.Start[op]
		src, err := t.operandSrc(g.Nodes[op].Args[argPort], step, ns)
		if err != nil {
			return err
		}
		if err := ns.Add(sink, src, step); err != nil {
			return err
		}
	}
	if port != 0 || t.fuPass[f] == 0 {
		return nil
	}
	// Pass-through input reads. Eval visits them value-ascending, chain
	// position ascending, holder position ascending; sort the unit's
	// live transfers into that order before replaying. Stale entries
	// whose transfer no longer exists are skipped exactly as Eval's
	// holder walk never reaches them.
	t.passTmp = t.passTmp[:0]
	//lint:maporder entries are sorted into Eval's deterministic visit order before use
	for tk, pf := range b.Pass {
		if pf != f {
			continue
		}
		v := &b.A.Values[tk.V]
		if tk.K < 1 || tk.K >= v.Len ||
			!b.HeldIn(tk.V, tk.K, tk.ToReg) || b.HeldIn(tk.V, tk.K-1, tk.ToReg) {
			continue
		}
		t.passTmp = append(t.passTmp, passEv{tk: tk, pos: t.holderPos(tk)})
	}
	sortPassEvs(t.passTmp)
	for _, pe := range t.passTmp {
		v := &b.A.Values[pe.tk.V]
		tstep := v.StepAt(pe.tk.K-1, b.A.StorageSteps)
		from := t.pickHolderScratch(pe.tk.V, pe.tk.K-1, ns)
		if from < 0 {
			return fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, pe.tk.K-1)
		}
		if err := ns.Add(sink, datapath.Source{Kind: datapath.SrcReg, Index: from}, tstep); err != nil {
			return err
		}
	}
	return nil
}

// holderPos returns the position of tk.ToReg in HoldersAt(tk.V, tk.K):
// 0 for the primary register, 1+i for the i-th copy.
func (t *Tx) holderPos(tk TransferKey) int {
	if t.b.SegReg[tk.V][tk.K] == tk.ToReg {
		return 0
	}
	for i, c := range t.b.CopiesAt(tk.V, tk.K) {
		if c == tk.ToReg {
			return i + 1
		}
	}
	return 1 << 30
}

func sortPassEvs(evs []passEv) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && lessPassEv(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func lessPassEv(a, b passEv) bool {
	if a.tk.V != b.tk.V {
		return a.tk.V < b.tk.V
	}
	if a.tk.K != b.tk.K {
		return a.tk.K < b.tk.K
	}
	return a.pos < b.pos
}

// replayOutput replays one external output port's single read.
func (t *Tx) replayOutput(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	g := b.A.Sched.G
	s := b.A.Sched
	n := t.outNode[sink.Index]
	step := s.Start[n]
	if g.Cyclic {
		step %= s.Steps
	}
	src, err := t.operandSrc(g.Nodes[n].Args[0], step, ns)
	if err != nil {
		return err
	}
	return ns.Add(sink, src, step)
}

// replayReg replays one register's write events: for each value in ID
// order, the birth write when the register holds chain position 0, then
// the incoming transfer at each later position it holds without having
// held the previous one — exactly Eval's third phase restricted to this
// sink.
func (t *Tx) replayReg(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	r := sink.Index
	for i := range b.A.Values {
		v := &b.A.Values[i]
		vid := v.ID
		if b.HeldIn(vid, 0, r) {
			if err := t.emitBirth(sink, v, ns); err != nil {
				return err
			}
		}
		for k := 1; k < v.Len; k++ {
			if !b.HeldIn(vid, k, r) || b.HeldIn(vid, k-1, r) {
				continue
			}
			if err := t.emitTransfer(sink, v, k, r, ns); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayRegOcc is replayReg driven by the occupancy grid: the
// register's column lists exactly the (value, position) pairs HeldIn
// would report, so sorting them into (value, position) order and
// checking adjacency for the held-previous-position test reproduces
// the HeldIn scan. Requires a conflict-free grid.
func (t *Tx) replayRegOcc(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	ss := b.A.StorageSteps
	col := t.occ[sink.Index]
	t.segTmp = t.segTmp[:0]
	for step, vid := range col {
		if vid == lifetime.NoValue {
			continue
		}
		k := step - b.A.Values[vid].Birth
		if k < 0 {
			k += ss
		}
		t.segTmp = append(t.segTmp, segPos{v: vid, k: k})
	}
	sortSegPos(t.segTmp)
	for i, sp := range t.segTmp {
		v := &b.A.Values[sp.v]
		if sp.k == 0 {
			if err := t.emitBirth(sink, v, ns); err != nil {
				return err
			}
			continue
		}
		// Held at k-1 too ⇔ the sorted list's previous entry is (v, k-1).
		if i > 0 && t.segTmp[i-1].v == sp.v && t.segTmp[i-1].k == sp.k-1 {
			continue
		}
		if err := t.emitTransfer(sink, v, sp.k, sink.Index, ns); err != nil {
			return err
		}
	}
	return nil
}

func sortSegPos(sp []segPos) {
	for i := 1; i < len(sp); i++ {
		for j := i; j > 0 && (sp[j].v < sp[j-1].v ||
			(sp[j].v == sp[j-1].v && sp[j].k < sp[j-1].k)); j-- {
			sp[j], sp[j-1] = sp[j-1], sp[j]
		}
	}
}

// emitBirth adds value v's producer write into register sink.
func (t *Tx) emitBirth(sink datapath.Sink, v *lifetime.Value, ns *datapath.NetScratch) error {
	b := t.b
	var src datapath.Source
	if pn := &b.A.Sched.G.Nodes[v.Producer]; pn.Op == cdfg.Input {
		src = datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[v.Producer]}
	} else {
		pf := b.OpFU[v.Producer]
		if pf < 0 {
			return fmt.Errorf("binding: producer of %s unbound", v.Name)
		}
		src = datapath.Source{Kind: datapath.SrcFU, Index: pf}
	}
	return ns.Add(sink, src, b.A.WriteStep(v))
}

// emitTransfer adds the transfer write of (v, k) into register r: from
// the bound pass-through FU when one exists, else directly from a
// holder of the previous position picked as Eval would.
func (t *Tx) emitTransfer(sink datapath.Sink, v *lifetime.Value, k, r int, ns *datapath.NetScratch) error {
	b := t.b
	tstep := v.StepAt(k-1, b.A.StorageSteps)
	if f, viaPass := b.Pass[TransferKey{v.ID, k, r}]; viaPass {
		return ns.Add(sink, datapath.Source{Kind: datapath.SrcFU, Index: f}, tstep)
	}
	from := t.pickHolderScratch(v.ID, k-1, ns)
	if from < 0 {
		return fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k-1)
	}
	return ns.Add(sink, datapath.Source{Kind: datapath.SrcReg, Index: from}, tstep)
}
