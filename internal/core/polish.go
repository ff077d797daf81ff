package core

import (
	"context"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// polish runs deterministic downhill sweeps over the systematic
// single-move neighborhood of the allocation — every whole-value
// re-registration, every operator re-assignment, every operand
// reversal, and every pass-through bind/unbind — applying each
// improving move immediately and repeating until a full sweep finds
// nothing. The randomized search handles the combinatorial moves; this
// pass guarantees the cheap single-move optima are never left on the
// table.
//
// Candidates run as transactions on a private working clone: each one
// is applied in place, costed from its dirty sinks, and rolled back
// unless it improves — the same delta==full invariant the search's
// inner loop relies on, so the accepted sequence (and therefore the
// result) is identical to a sweep that fully evaluates every candidate.
//
// The context is polled only between candidates, when the transaction
// holds exactly the committed binding, so a cancelled polish stops on
// a legal binding no worse than its input. cut reports that it stopped
// before the neighborhood was exhausted.
func polish(ctx context.Context, b *binding.Binding, cost binding.Cost, opts Options) (_ *binding.Binding, _ binding.Cost, _ *datapath.Interconnect, cut bool) {
	best := b.Clone()
	tx, err := binding.NewTx(best)
	if err != nil {
		return b, cost, nil, false
	}
	bestCost := cost

	// halt is called before each candidate opens; it polls ctx every
	// cancelCheckStride candidates, starting with the first.
	candidates := 0
	halt := func() bool {
		if !cut && candidates%cancelCheckStride == 0 {
			cut = ctx.Err() != nil
		}
		candidates++
		return cut
	}

	// try closes the candidate move currently open on tx: commit when
	// it strictly improves, roll back otherwise. A delta-evaluation
	// error means the candidate was illegal — discarded exactly as a
	// candidate whose full Eval fails.
	try := func() bool {
		candCost, err := tx.DeltaCost()
		if err == nil && candCost.Total < bestCost.Total {
			tx.Commit()
			bestCost = candCost
			return true
		}
		tx.Rollback()
		return false
	}

	g := best.A.Sched.G
sweeps:
	for sweep := 0; sweep < 20; sweep++ {
		improved := false

		// Whole-value moves (R4 over every target register).
		for v := range best.A.Values {
			vid := best.A.Values[v].ID
			for r := range best.HW.Regs {
				if best.SegReg[v][0] == r {
					continue
				}
				if halt() {
					break sweeps
				}
				tx.Begin()
				for k := range best.SegReg[v] {
					tx.RemoveCopy(vid, k, r)
					tx.SetSegReg(vid, k, r)
				}
				if tx.OccLegal() != nil {
					tx.Rollback()
					continue
				}
				tx.PrunePass()
				if try() {
					improved = true
				}
			}
		}

		// Suffix moves (the extended model's cheapest value-migration
		// primitive: one new transfer), over every split point and
		// target register. The legality pre-probe reads the
		// transaction's live occupancy grid between candidates, where it
		// describes best: a committed candidate is already in it and a
		// rolled-back one already undone.
		if opts.EnableSegments {
			occ, err := tx.Occ()
			if err == nil {
				for v := range best.A.Values {
					val := &best.A.Values[v]
					for k := 1; k < val.Len; k++ {
						for r := range best.HW.Regs {
							if best.SegReg[v][k] == r {
								continue
							}
							// Target must be free (or already ours) over
							// the whole suffix.
							ok := true
							for kk := k; kk < val.Len; kk++ {
								t := val.StepAt(kk, best.A.StorageSteps)
								if h := occ[r][t]; h != lifetime.NoValue && h != lifetime.ValueID(v) {
									ok = false
									break
								}
							}
							if !ok {
								continue
							}
							if halt() {
								break sweeps
							}
							tx.Begin()
							for kk := k; kk < val.Len; kk++ {
								tx.RemoveCopy(val.ID, kk, r)
								tx.SetSegReg(val.ID, kk, r)
							}
							if tx.OccLegal() != nil {
								tx.Rollback()
								continue
							}
							tx.PrunePass()
							if try() {
								improved = true
							}
						}
					}
				}
			}
		}

		// Operator moves (F2 over every compatible FU) and reversals (F3).
		// Only a committed operator move changes the issue windows, so
		// the FU table is taken once and retaken after each one.
		fuOcc, fuErr := best.FUOccupancy()
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if !n.Op.IsArith() {
				continue
			}
			if fuErr != nil {
				break
			}
			st := best.A.Sched.Start[i]
			ii := best.A.Sched.Delays.IIOf(n.Op)
			for _, f := range best.HW.FUsOfClass(sched.ClassOf(n.Op)) {
				if f == best.OpFU[i] {
					continue
				}
				free := true
				for t := st; t < st+ii; t++ {
					if fuOcc.Issue[f][t] != cdfg.NoNode {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				if halt() {
					break sweeps
				}
				tx.Begin()
				tx.SetOpFU(cdfg.NodeID(i), f)
				tx.PrunePass()
				if try() {
					improved = true
					fuOcc, fuErr = best.FUOccupancy()
					break
				}
			}
			if n.Op.Commutative() {
				if halt() {
					break sweeps
				}
				tx.Begin()
				tx.FlipSwap(cdfg.NodeID(i))
				if try() {
					improved = true
				}
			}
		}

		// Pass-through binds (F4) and unbinds (F5).
		if opts.EnablePass {
			occ, err := best.FUOccupancy()
			if err == nil {
				for _, tk := range best.Transfers() {
					if _, bound := best.Pass[tk]; bound {
						continue
					}
					t := best.A.Values[tk.V].StepAt(tk.K-1, best.A.StorageSteps)
					for f := range best.HW.FUs {
						if !best.FUPassFree(occ, f, t, tk) {
							continue
						}
						if halt() {
							break sweeps
						}
						tx.Begin()
						tx.SetPass(tk, f)
						if try() {
							improved = true
							break
						}
					}
				}
			}
			keys := make([]binding.TransferKey, 0, len(best.Pass))
			//lint:maporder keys are sorted before use
			for tk := range best.Pass {
				keys = append(keys, tk)
			}
			sortTransferKeys(keys)
			for _, tk := range keys {
				if halt() {
					break sweeps
				}
				tx.Begin()
				tx.UnbindPass(tk)
				if try() {
					improved = true
				}
			}
		}

		// Copy removals (R6): copies that stopped paying for themselves.
		if opts.EnableSplit {
			for v := range best.A.Values {
				val := &best.A.Values[v]
				for k := 0; k < val.Len; k++ {
					for _, r := range append([]int(nil), best.CopiesAt(val.ID, k)...) {
						if halt() {
							break sweeps
						}
						tx.Begin()
						tx.RemoveCopy(val.ID, k, r)
						tx.PrunePass()
						if try() {
							improved = true
						}
					}
				}
			}
		}

		if !improved {
			break
		}
	}
	bestIC, _, err := best.Eval()
	if err != nil {
		return best, bestCost, nil, cut
	}
	return best, bestCost, bestIC, cut
}
