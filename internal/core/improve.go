package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"salsa/internal/binding"
)

// cancelCheckStride is how many moves (or polish candidates) pass
// between context polls; a move costs at most a few dirty-sink
// replays, so checking every few moves keeps cancellation latency in
// the microseconds without measurable overhead on the hot path.
const cancelCheckStride = 32

// Fixed search constants. Each trial accepts up to uphillQuota
// cost-increasing moves at its start before turning downhill-only, and
// an accepted uphill move may worsen the cost by at most the mux
// weight plus uphillSlack. Annealing, kept only as an ablation, starts
// at temperature annealT0 and cools geometrically by annealCool after
// each trial.
const (
	uphillQuota = 6
	uphillSlack = 2
	annealT0    = 8.0
	annealCool  = 0.85
)

// improve runs the paper's iterative improvement scheme (§4): several
// trials, each attempting a fixed number of random moves; cost-
// decreasing moves are always kept, a fixed quota of cost-increasing
// moves is accepted at the start of each trial (moving the search to a
// new neighborhood), after which only downhill moves are taken. The
// best allocation seen anywhere is recorded and returned. The search
// stops after StallTrials successive trials without improvement.
//
// Moves run as in-place transactions: the mover mutates the current
// binding through a binding.Tx, the cost delta is recomputed from only
// the sinks the move perturbed, and rejected moves roll back. With
// opts.Paranoid every move is checked against the reference semantics
// (see checkDelta and checkRollback), so the first move whose delta or
// undo is wrong is named rather than surfacing later as a differing
// result.
//
// With opts.Anneal the acceptance rule switches to simulated annealing
// (Metropolis criterion with geometric cooling across trials) — the
// approach the paper reports as inferior; it is retained as an
// ablation.
//
// Anytime semantics: context cancellation is polled between moves and
// the TrialEnd hook may stop the search at any trial boundary; in both
// cases the best-so-far allocation is polished (as far as the context
// allows) and returned rather than discarded.
func improve(ctx context.Context, b *binding.Binding, initCost binding.Cost, opts Options, ctl *Control) (*Result, error) {
	rng := newRNG(opts.Seed)
	mv := newMover(b, opts, rng)

	cur := b
	curCost := initCost
	best := b.Clone()
	bestCost := initCost

	tx, err := binding.NewTx(cur)
	if err != nil {
		return nil, fmt.Errorf("core: initial allocation unevaluable: %w", err)
	}

	stop := StopNatural
	trials, tried, accepted := 0, 0, 0
	stall := 0
	temp := annealT0
	maxUp := opts.Cfg.Wmux + uphillSlack
search:
	for trial := 0; trial < opts.MaxTrials; trial++ {
		trials++
		if trial > 0 {
			// Each trial restarts its walk from the best allocation so
			// the uphill quota explores around it instead of drifting.
			cur = best.Clone()
			curCost = bestCost
			if err := tx.Reset(cur); err != nil {
				return nil, fmt.Errorf("core: trial restart unevaluable: %w", err)
			}
		}
		uphillLeft := uphillQuota
		improved := false
		for i := 0; i < opts.MovesPerTrial; i++ {
			if i%cancelCheckStride == 0 && ctx.Err() != nil {
				stop = StopCancelled
				break search
			}
			tried++
			kind := mv.pickKind()

			var pre *binding.Binding
			if opts.Paranoid {
				pre = cur.Clone()
			}
			tx.Begin()
			if !mv.apply(tx, kind) {
				tx.Rollback()
				if err := checkRollback(tx, pre, curCost); err != nil {
					return nil, paranoidErr(trial, i, kind, err)
				}
				continue
			}
			cost, err := tx.DeltaCost()
			if err != nil {
				// A move produced an unevaluable binding: a bug, not a
				// search dead end.
				return nil, fmt.Errorf("core: move produced illegal binding: %w", err)
			}
			if opts.Paranoid {
				if err := checkDelta(cur, cost); err != nil {
					return nil, paranoidErr(trial, i, kind, err)
				}
			}

			accept := false
			switch {
			case cost.Total <= curCost.Total:
				accept = true
			case opts.Anneal:
				delta := float64(cost.Total - curCost.Total)
				accept = temp > 0 && rng.Float64() < math.Exp(-delta/temp)
			case uphillLeft > 0 && cost.Total-curCost.Total <= maxUp:
				uphillLeft--
				accept = true
			}
			if !accept {
				tx.Rollback()
				if err := checkRollback(tx, pre, curCost); err != nil {
					return nil, paranoidErr(trial, i, kind, err)
				}
				continue
			}
			tx.Commit()
			if opts.Paranoid {
				if err := cur.Check(); err != nil {
					return nil, paranoidErr(trial, i, kind, fmt.Errorf("accepted illegal binding: %w", err))
				}
				if err := tx.Audit(); err != nil {
					return nil, paranoidErr(trial, i, kind, fmt.Errorf("commit: %w", err))
				}
			}
			accepted++
			curCost = cost
			if cost.Total < bestCost.Total {
				best = cur.Clone()
				bestCost = cost
				improved = true
			}
		}
		if opts.Anneal {
			temp *= annealCool
		}
		if ctl.trialEnd(trial, best, bestCost, improved, tried, accepted) {
			stop = StopPruned
			break
		}
		if improved {
			stall = 0
		} else {
			stall++
			if stall >= opts.StallTrials {
				break
			}
		}
	}

	res, err := Finalize(ctx, best, bestCost, opts)
	if err != nil {
		return nil, err
	}
	res.Trials = trials
	res.MovesTried = tried
	res.MovesAccepted = accepted
	if res.Stop == StopNatural {
		res.Stop = stop
	}
	return res, nil
}

// paranoidErr names the move a Paranoid check failed on.
func paranoidErr(trial, move int, kind moveKind, err error) error {
	return fmt.Errorf("core: paranoid: trial %d move %d (%v): %w", trial, move, kind, err)
}

// checkDelta is Paranoid's cost oracle, run on every applied move
// before the accept decision: the incrementally maintained cost must
// equal a from-scratch evaluation of the same binding.
func checkDelta(b *binding.Binding, delta binding.Cost) error {
	_, full, err := b.Eval()
	if err != nil {
		return fmt.Errorf("delta cost %+v but full evaluation fails: %w", delta, err)
	}
	if full != delta {
		return fmt.Errorf("delta cost %+v != full evaluation %+v", delta, full)
	}
	return nil
}

// checkRollback is Paranoid's undo oracle, run after every Rollback: the
// binding must be exactly the clone taken before Begin, the
// transaction's cost back at its pre-move value, and its occupancy
// grid, operator lists and pass counts equal to fresh scans (Tx.Audit).
// A nil pre (Paranoid off) checks nothing.
func checkRollback(tx *binding.Tx, pre *binding.Binding, preCost binding.Cost) error {
	if pre == nil {
		return nil
	}
	if !reflect.DeepEqual(tx.B(), pre) {
		return errors.New("rollback did not restore the pre-move binding")
	}
	if got := tx.Cost(); got != preCost {
		return fmt.Errorf("rollback left cost %+v, want %+v", got, preCost)
	}
	if err := tx.Audit(); err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	return nil
}

// Finalize applies the deterministic downhill polish over the
// systematic single-move neighborhood to a best-so-far binding and
// packages it as a Result with the merged multiplexer count — exactly
// the tail every search run ends with. It is exported so that a
// portfolio reduction can rebuild the canonical result of a search
// truncated at a trial boundary (see internal/engine) and obtain the
// same bytes a live truncation at that boundary would have produced.
//
// Cancelling ctx stops the polish at the next candidate boundary; the
// result is then the legal, partially polished binding with Stop =
// StopCancelled, which is not the canonical result. An uncancelled
// Finalize leaves Stop = StopNatural for the caller to set.
func Finalize(ctx context.Context, best *binding.Binding, bestCost binding.Cost, opts Options) (*Result, error) {
	best, bestCost, bestIC, cut := polish(ctx, best, bestCost, opts)
	if bestIC == nil {
		// polish leaves the IC nil only when the input binding did not
		// evaluate, which a legal search state never hits.
		var err error
		if bestIC, bestCost, err = best.Eval(); err != nil {
			return nil, fmt.Errorf("core: finalize: %w", err)
		}
	}
	if opts.Paranoid {
		if err := best.Check(); err != nil {
			return nil, fmt.Errorf("core: polish produced illegal binding: %w", err)
		}
	}
	res := &Result{
		Binding:   best,
		Cost:      bestCost,
		IC:        bestIC,
		MergedMux: bestIC.MergedMuxCost(),
	}
	if cut {
		res.Stop = StopCancelled
	}
	return res, nil
}
