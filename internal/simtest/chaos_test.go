package simtest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// chaosSeeds reports how many seeds to sweep: SALSA_CHAOS_SEEDS when
// set (CI shards the sweep across jobs), else a quick local default.
func chaosSeeds(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("SALSA_CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SALSA_CHAOS_SEEDS %q", v)
		}
		return n
	}
	return 5
}

// chaosSeedStart reports the first seed of the sweep: CI's matrix
// shards set SALSA_CHAOS_SEED_START so each job covers a disjoint
// range ([start, start+SALSA_CHAOS_SEEDS)); unset means 1.
func chaosSeedStart(t *testing.T) int {
	t.Helper()
	v := os.Getenv("SALSA_CHAOS_SEED_START")
	if v == "" {
		return 1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad SALSA_CHAOS_SEED_START %q", v)
	}
	return n
}

// writeArtifact dumps a failing scenario as JSONL — one event per
// line, then the metrics, injected-fault tally and violations — into
// SALSA_CHAOS_ARTIFACTS (when set), so CI can attach it and anyone can
// replay the seed.
func writeArtifact(t *testing.T, rr *RunResult) {
	t.Helper()
	dir := os.Getenv("SALSA_CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	scenario := rr.Scenario
	if scenario == "" {
		scenario = "chaos"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_seed_%d.jsonl", scenario, rr.Seed))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			t.Logf("artifacts: %v", cerr)
		}
	}()
	enc := json.NewEncoder(f)
	for _, ev := range rr.Events {
		if err := enc.Encode(ev); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
	}
	summary := map[string]any{
		"seed":       rr.Seed,
		"metrics":    rr.Metrics,
		"injected":   rr.Injected,
		"violations": rr.Violations,
	}
	if err := enc.Encode(summary); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	t.Logf("wrote %s", path)
}

// TestChaosScenarios sweeps seeds through the full chaos scenario:
// scripted concurrent clients, every fault kind enabled, virtual time.
// Any violated invariant fails the seed's subtest and leaves a JSONL
// artifact behind.
func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios run whole engine searches; skipped in -short")
	}
	start := chaosSeedStart(t)
	for seed := start; seed < start+chaosSeeds(t); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rr := Run(int64(seed), Options{Rates: Light()})
			if len(rr.Violations) > 0 {
				writeArtifact(t, rr)
				for _, v := range rr.Violations {
					t.Error(v)
				}
				t.Logf("metrics: %v", rr.Metrics)
				t.Logf("injected faults: %v", rr.Injected)
			}
		})
	}
}

// TestFaultFreeScenarioIsQuiet: with the fault plane disabled, the
// scenario is not merely invariant-clean — nothing retries, nothing
// fails, nothing is injected, and the server never sheds load.
func TestFaultFreeScenarioIsQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole engine searches; skipped in -short")
	}
	rr := Run(99, Options{})
	if len(rr.Violations) > 0 {
		writeArtifact(t, rr)
		for _, v := range rr.Violations {
			t.Error(v)
		}
	}
	if len(rr.Injected) != 0 {
		t.Errorf("fault-free run injected faults: %v", rr.Injected)
	}
	for _, code := range []string{"http_responses_total_429", "http_responses_total_500", "http_responses_total_503"} {
		if rr.Metrics[code] != 0 {
			t.Errorf("%s = %d in a fault-free run", code, rr.Metrics[code])
		}
	}
	for _, ev := range rr.Events {
		if ev.Kind == OpShort.String() {
			continue // a short deadline may legitimately expire
		}
		if !ev.OK {
			t.Errorf("fault-free op failed: %+v", ev)
		}
		// Attempts counts every HTTP exchange: a sync op must need
		// exactly one; an async op needs its submission plus polls,
		// but never a resubmission (which the path sequence would
		// show as extra attempts only — OK above already covers it).
		if ev.Kind == OpSync.String() && ev.Attempts != 1 {
			t.Errorf("fault-free sync op retried: %+v", ev)
		}
	}
}

// TestScriptsAreDeterministic: the whole client choreography is a pure
// function of the seed, and distinct seeds actually differ.
func TestScriptsAreDeterministic(t *testing.T) {
	a := BuildScripts(7, 6, 8)
	b := BuildScripts(7, 6, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildScripts(7, ...) differs between calls")
	}
	c := BuildScripts(8, 6, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated identical scripts")
	}
}

// TestFaultStreamsAreDeterministic: a fault plane replayed with the
// same seed makes the same decisions in the same order per stream, and
// different seeds diverge.
func TestFaultStreamsAreDeterministic(t *testing.T) {
	sequence := func(seed int64) []uint64 {
		f := NewFaults(seed, Light(), nil)
		var out []uint64
		for i := 0; i < 64; i++ {
			out = append(out, f.draw("http429", "POST /allocate", 10000))
			out = append(out, f.draw("evict", "some|key", 10000))
		}
		return out
	}
	if !reflect.DeepEqual(sequence(3), sequence(3)) {
		t.Fatal("same seed, different fault decisions")
	}
	if reflect.DeepEqual(sequence(3), sequence(4)) {
		t.Fatal("seeds 3 and 4 share a fault stream")
	}
}
