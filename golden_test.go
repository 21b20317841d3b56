package muzzle

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// TestPaperArtifactsGolden pins the paper's artifacts byte for byte: Table
// II, Fig. 8 and the headline summary over the five NISQ programs and the
// 120-circuit random suite, plus the per-circuit shuttle matrix of both
// compilers. Table III is left out because it holds wall times. Rewrite the
// golden only with
//
//	go test . -run TestPaperArtifactsGolden -update
func TestPaperArtifactsGolden(t *testing.T) {
	p, err := NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	nisq, err := p.EvaluateNISQ(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	random, err := p.EvaluateRandom(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatTableII(nisq, random))
	b.WriteString("\n")
	b.WriteString(FormatFigure8(nisq, random))
	b.WriteString("\n")
	b.WriteString(FormatSummary(nisq, random))
	b.WriteString("\n\n")
	b.WriteString(FormatCompilerMatrix(slices.Concat(nisq, random)))

	path := filepath.Join("testdata", "paper.golden")
	got := []byte(b.String())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test . -run TestPaperArtifactsGolden -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: got %d lines, want %d", path, len(gl), len(wl))
	}
}
