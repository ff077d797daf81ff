// Package engine is the parallel portfolio search orchestrator: it
// fans a portfolio of allocation jobs (derived seeds × option
// variants) across a bounded worker pool, cancels cleanly on context
// deadline while keeping every job's best-so-far result (anytime
// semantics), prunes walks that can no longer beat the shared
// incumbent, and reduces the outcomes to a single winner.
//
// # Determinism
//
// The engine guarantees that the winning allocation — and every
// canonical per-job result in Stats — is byte-identical for any
// worker count and any completion order, given the same portfolio.
// Two mechanisms make this work:
//
//  1. The reduction resolves jobs strictly in portfolio order and
//     picks the winner by (cost, merged-mux count, job index), so the
//     comparison sequence never depends on which worker finished
//     first.
//
//  2. Incumbent pruning is defined canonically, not operationally: job
//     i's pruning boundary is the first trial t with no improvement
//     whose best cost exceeds the best canonical result among jobs
//     0..i-1 — a function only of the jobs' deterministic search
//     trajectories. Workers consult the shared atomic incumbent to
//     stop early, but the incumbent only ever carries canonical
//     results of already-resolved lower-index jobs, so a live stop can
//     never come before the canonical boundary — only after it, when
//     the incumbent was still in flight. Any overrun is discarded by
//     the reduction, which rebuilds the canonical result from the
//     job's recorded trial-boundary trajectory (core.Finalize on the
//     best-so-far at the boundary — the same bytes a live stop there
//     would have produced).
//
// Cancellation is the one escape hatch: the run's context is its only
// deadline. It stops jobs mid-trial and their polish between
// candidates, which is inherently timing-dependent, so runs that hit
// their deadline trade the determinism guarantee for the anytime
// result and report every job it cut off as cancelled.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/binding"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
)

// Config tunes one engine run.
type Config struct {
	// Workers bounds the number of concurrent searches; <= 0 selects
	// GOMAXPROCS. Workers = 1 is the sequential degenerate case: jobs
	// run one at a time in portfolio order.
	Workers int
	// Events, when non-nil, receives progress telemetry. Invocations
	// are serialized; the callback must not block for long or it will
	// stall the search workers.
	Events func(Event)
	// TrialHook, when non-nil, is invoked at every trial boundary of
	// every job, before the pruning decision for that trial. It exists
	// so simulation tests (internal/simtest) can pace or stall searches
	// in virtual time; it must not influence search decisions — the
	// trajectory a job records is identical with or without it — and it
	// is never set in production.
	TrialHook func(job, trial int)
}

// Run executes the portfolio against one shared (read-only) analysis
// and hardware set and returns the winning allocation, aggregate
// statistics, and an error only when no job produced a result. ctx
// bounds the run: on cancellation every job returns its best-so-far
// promptly. See the package comment for the determinism contract.
func Run(ctx context.Context, a *lifetime.Analysis, hw *datapath.Hardware, jobs []Job, cfg Config) (*core.Result, *Stats, error) {
	start := time.Now()
	if len(jobs) == 0 {
		return nil, nil, errors.New("engine: empty portfolio")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	statRuns.Add(1)
	statJobs.Add(int64(len(jobs)))
	statWorkers.Add(int64(workers))

	eng := &run{jobs: jobs, cfg: cfg, start: start}
	eng.incumbent.Store(math.MaxInt64)
	eng.liveBest = math.MaxInt64

	// Feed job indices in portfolio order to a bounded pool. Workers
	// drain the queue even after cancellation (a cancelled job returns
	// its best-so-far almost immediately), which keeps the accounting
	// exact: one done signal per job.
	feed := make(chan int)
	done := make(chan int, len(jobs))
	outcomes := make([]*outcome, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range feed {
				outcomes[idx] = eng.runJob(ctx, a, hw, idx)
				done <- idx
			}
		}()
	}
	go func() {
		defer close(feed)
		for i := range jobs {
			feed <- i
		}
	}()

	// Reduce: as jobs finish (in any order), resolve the canonical
	// prefix in portfolio order, publishing each resolved cost to the
	// shared incumbent so running workers can prune against it.
	st := &Stats{Jobs: len(jobs), BestJob: -1, PerJob: make([]JobResult, len(jobs))}
	var winner *core.Result
	finished := make([]bool, len(jobs))
	resolved := 0
	for n := 0; n < len(jobs); n++ {
		idx := <-done
		finished[idx] = true
		for resolved < len(jobs) && finished[resolved] {
			eng.resolve(ctx, resolved, outcomes[resolved], st, &winner)
			resolved++
		}
	}
	wg.Wait()
	st.Wall = time.Since(start)

	if winner == nil {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("engine: no allocation before cancellation: %w", err)
		}
		for i := range st.PerJob {
			if st.PerJob[i].Err != nil {
				return nil, st, st.PerJob[i].Err
			}
		}
		return nil, st, errors.New("engine: no job produced a result")
	}
	return winner, st, nil
}

// trialRec is one trial boundary of a job's search trajectory: enough
// to recompute the canonical pruning point and rebuild the canonical
// result when the live search overran it.
type trialRec struct {
	total    int          // best cost total at the end of the trial
	cost     binding.Cost // full best cost at the end of the trial
	improved bool         // whether this trial improved the best
	tried    int          // cumulative moves tried
	accepted int          // cumulative moves accepted
	// best is a clone of the best-so-far binding, recorded when the
	// trial improved it (and always at the first boundary); nil means
	// "same as the previous record".
	best *binding.Binding
}

// outcome is what a worker hands the reduction.
type outcome struct {
	res *core.Result // as returned by the search; nil on error
	err error
	log []trialRec
	dur time.Duration
}

// run is the shared state of one engine invocation.
type run struct {
	jobs  []Job
	cfg   Config
	start time.Time

	// incumbent is the canonical prefix minimum: the best total cost
	// among already-resolved jobs. Only the reduction writes it (in
	// portfolio order); workers load it at trial boundaries to decide
	// whether a stalled walk can still beat the global best. Because
	// the resolved prefix never reaches a still-running job's index,
	// every value a worker observes comes from lower-index jobs only.
	incumbent atomic.Int64

	// liveBest tracks the best trial-end cost seen anywhere, for
	// EventImproved telemetry; guarded by mu so the event stream is
	// monotone. Separate from incumbent: speculative, timing-dependent,
	// never consulted for pruning.
	liveBest int64 // guarded by mu
	mu       sync.Mutex
}

func (eng *run) emit(ev Event) {
	if eng.cfg.Events == nil {
		return
	}
	ev.Elapsed = time.Since(eng.start)
	eng.mu.Lock()
	eng.cfg.Events(ev)
	eng.mu.Unlock()
}

// improvedTo reports a new trial-end best and emits EventImproved when
// it beats the live incumbent.
func (eng *run) improvedTo(idx, trial, total int) {
	if eng.cfg.Events == nil {
		return
	}
	eng.mu.Lock()
	if int64(total) < eng.liveBest {
		eng.liveBest = int64(total)
		ev := Event{
			Kind: EventImproved, Job: idx, Label: eng.jobs[idx].Label,
			Seed: eng.jobs[idx].Opts.Seed, Trial: trial, Cost: total,
			Elapsed: time.Since(eng.start),
		}
		eng.cfg.Events(ev)
	}
	eng.mu.Unlock()
}

// runJob executes one portfolio entry on the calling worker goroutine.
func (eng *run) runJob(ctx context.Context, a *lifetime.Analysis, hw *datapath.Hardware, idx int) *outcome {
	t0 := time.Now()
	job := eng.jobs[idx]
	eng.emit(Event{Kind: EventJobStarted, Job: idx, Label: job.Label, Seed: job.Opts.Seed})
	out := &outcome{}
	ctl := &core.Control{
		TrialEnd: func(trial int, best *binding.Binding, bestCost binding.Cost, improved bool, tried, accepted int) bool {
			if eng.cfg.TrialHook != nil {
				eng.cfg.TrialHook(idx, trial)
			}
			rec := trialRec{
				total: bestCost.Total, cost: bestCost, improved: improved,
				tried: tried, accepted: accepted,
			}
			if improved || len(out.log) == 0 {
				rec.best = best.Clone()
			}
			out.log = append(out.log, rec)
			if improved {
				eng.improvedTo(idx, trial, bestCost.Total)
			}
			// The live pruning check: a stalled walk that cannot beat
			// the canonical incumbent gives up. The incumbent may lag
			// the canonical value (lower-index jobs still in flight),
			// so this stop can only come at or after the canonical
			// boundary; the reduction trims any overrun.
			return !improved && int64(bestCost.Total) > eng.incumbent.Load()
		},
	}
	out.res, out.err = core.AllocateControlled(ctx, a, hw, job.Opts, ctl)
	out.dur = time.Since(t0)
	return out
}

// resolve folds job idx's outcome into the reduction. It is called in
// strict portfolio order from the single reduction goroutine.
func (eng *run) resolve(ctx context.Context, idx int, out *outcome, st *Stats, winner **core.Result) {
	job := eng.jobs[idx]
	jr := JobResult{Job: idx, Label: job.Label, Seed: job.Opts.Seed, Duration: out.dur, Err: out.err}

	res := out.res
	switch {
	case out.err != nil:
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			jr.Cancelled = true
			st.Cancelled++
			statJobsCancelled.Add(1)
		} else {
			st.Failed++
			statJobsFailed.Add(1)
		}
	case res.Stop == core.StopCancelled:
		// Deadline hit mid-search or mid-polish: keep the anytime
		// best-so-far as is. Determinism is forfeited for this run by
		// definition.
		jr.Cancelled = true
		st.Cancelled++
		statJobsCancelled.Add(1)
	default:
		t := eng.canonicalStop(out.log)
		if t < 0 {
			break
		}
		if t == len(out.log)-1 {
			res.Stop = core.StopPruned
		} else {
			// The job overran its canonical boundary before the
			// incumbent caught up with it; rebuild the canonical result
			// from the recorded trajectory.
			trunc, err := eng.truncate(ctx, out, t, job.Opts)
			if err != nil {
				jr.Err = err
				st.Failed++
				statJobsFailed.Add(1)
				res = nil
				break
			}
			res = trunc
		}
		if res.Stop == core.StopCancelled {
			// The deadline cut the rebuild's polish: the result is
			// legal but not the canonical one.
			jr.Cancelled = true
			st.Cancelled++
			statJobsCancelled.Add(1)
		} else {
			jr.Pruned = true
			st.Pruned++
			statJobsPruned.Add(1)
		}
	}

	if res != nil {
		jr.Cost = res.Cost
		jr.Merged = res.MergedMux
		jr.Trials = res.Trials
		jr.MovesTried = res.MovesTried
		jr.MovesAccepted = res.MovesAccepted
		st.Trials += res.Trials
		st.MovesTried += res.MovesTried
		st.MovesAccepted += res.MovesAccepted
		statTrials.Add(int64(res.Trials))
		statMovesTried.Add(int64(res.MovesTried))
		statMovesAccepted.Add(int64(res.MovesAccepted))
		if int64(res.Cost.Total) < eng.incumbent.Load() {
			eng.incumbent.Store(int64(res.Cost.Total))
			statIncumbentUpdates.Add(1)
		}
		if *winner == nil || res.Cost.Total < (*winner).Cost.Total ||
			(res.Cost.Total == (*winner).Cost.Total && res.MergedMux < (*winner).MergedMux) {
			*winner = res
			st.BestJob = idx
			st.BestCost = res.Cost
			st.BestMerged = res.MergedMux
		}
	}
	st.PerJob[idx] = jr

	ev := Event{
		Kind: EventJobFinished, Job: idx, Label: job.Label, Seed: job.Opts.Seed,
		Pruned: jr.Pruned, Err: jr.Err,
	}
	if res != nil {
		ev.Cost = res.Cost.Total
		ev.Merged = res.MergedMux
	}
	eng.emit(ev)
}

// canonicalStop returns the canonical pruning boundary for a completed
// trajectory — the first trial with no improvement whose best exceeds
// the canonical incumbent over lower-index jobs — or -1 when the job
// runs to natural termination. The incumbent is read here, on the
// reduction goroutine, after all lower-index jobs have been resolved,
// so the answer is independent of worker count and timing.
func (eng *run) canonicalStop(log []trialRec) int {
	inc := eng.incumbent.Load()
	for t := range log {
		if !log[t].improved && int64(log[t].total) > inc {
			return t
		}
	}
	return -1
}

// truncate rebuilds the canonical result of a job stopped at trial
// boundary t: the recorded best-so-far at t, polished exactly as a
// live stop there would have polished it. When ctx cuts the polish,
// the result keeps Stop = StopCancelled.
func (eng *run) truncate(ctx context.Context, out *outcome, t int, opts core.Options) (*core.Result, error) {
	var best *binding.Binding
	for k := t; k >= 0; k-- {
		if out.log[k].best != nil {
			best = out.log[k].best
			break
		}
	}
	if best == nil {
		return nil, errors.New("engine: trajectory log missing best binding")
	}
	res, err := core.Finalize(ctx, best, out.log[t].cost, opts)
	if err != nil {
		return nil, fmt.Errorf("engine: canonical truncation: %w", err)
	}
	res.Trials = t + 1
	res.MovesTried = out.log[t].tried
	res.MovesAccepted = out.log[t].accepted
	res.InitialCost = out.res.InitialCost
	if res.Stop == core.StopNatural {
		res.Stop = core.StopPruned
	}
	return res, nil
}
