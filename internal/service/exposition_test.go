package service

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"salsa/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// skeleton reduces a Prometheus text exposition to its shape: HELP and
// TYPE lines verbatim, sample lines without their values. What is left
// is the family order, the series names and the label sets.
func skeleton(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (rerun with -update if intended):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestMetricsSkeleton pins salsad's /metrics exposition: family order,
// HELP and TYPE lines, series names and label sets.
func TestMetricsSkeleton(t *testing.T) {
	e := newTestServer(t, Config{})
	e.post(t, "/allocate", allocBody(t, workloads.Figure1(), nil))
	e.post(t, "/allocate", []byte("{"))
	status, body := e.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	checkGolden(t, "metrics.skeleton", skeleton(string(body)))
}

// checkGrouping enforces the text format's grouping rule: each family
// has exactly one # TYPE line, and its HELP, TYPE and sample lines form
// one contiguous group.
func checkGrouping(t *testing.T, text string) {
	t.Helper()
	kinds := map[string]string{} // family -> type
	closed := map[string]bool{}
	var cur string
	enter := func(family string) {
		if family == cur {
			return
		}
		if closed[family] {
			t.Errorf("family %s is split into more than one group", family)
		}
		closed[cur], cur = true, family
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			if f[1] == "TYPE" {
				if _, dup := kinds[f[2]]; dup {
					t.Errorf("family %s has more than one # TYPE line", f[2])
				}
				kinds[f[2]] = f[3]
			}
			enter(f[2])
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); kinds[base] == "histogram" {
				name = base
			}
		}
		enter(name)
	}
}
