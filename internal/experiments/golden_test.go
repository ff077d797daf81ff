package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickGolden locks the formatted output of every table, the
// Figure 1/2 row and the Figure 3/4 demos at the Quick(1) effort, so a
// refactor of how the experiments build and allocate their designs
// cannot move a reported number unnoticed.
func TestQuickGolden(t *testing.T) {
	cfg := Quick(1)
	var b strings.Builder
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable("Table 2", t2))
	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable("Table 3", t3))
	ab, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatAblation(ab))
	ss, err := SchedulerStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatSchedulerStudy(ss))
	bs, err := BaselineStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatBaselineStudy(bs))
	demos, err := Demos()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range demos {
		b.WriteString(FormatDemo(d))
	}
	row, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable("Figures 1/2", []Row{row}))

	got := []byte(b.String())
	golden := filepath.Join("testdata", "quick1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Quick(1) output drifted from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
