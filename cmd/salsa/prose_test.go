package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestProseGolden locks the prose report byte-for-byte. Allocation is
// deterministic for any worker count, and without -v the report
// carries no wall-clock stamps, so the exact bytes are reproducible.
func TestProseGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"ewf_both", []string{"-bench", "ewf", "-steps", "19", "-extra-regs", "1", "-mode", "both"}},
		{"diffeq_fds_matching", []string{"-bench", "diffeq", "-scheduler", "fds", "-mode", "matching"}},
		{"figure1_chart_area_place", []string{"-bench", "figure1", "-restarts", "2", "-chart", "-area", "-place"}},
		{"diffeq_pipelined_traditional_sim", []string{"-bench", "diffeq", "-pipelined", "-mode", "traditional",
			"-restarts", "2", "-sim", "dx=1,a=20,x=0,y=1,u=2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", "prose_"+tc.name+".txt")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("prose output drifted from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s",
					golden, stdout.Bytes(), want)
			}
		})
	}
}
