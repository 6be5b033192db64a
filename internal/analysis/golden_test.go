package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// fixturePkgs maps each fixture directory under testdata/src to the import
// path it is loaded under. The paths sit under repro/internal/ so that the
// internal-only analyzers (uncheckederr, panicpath) are in scope; the
// walltime fixture loads under an internal/tuner-suffixed path because
// that analyzer is scoped to the sample-stream packages.
var fixturePkgs = []struct {
	name       string
	importPath string
}{
	{name: "globalrand"},
	{name: "floateq"},
	{name: "uncheckederr"},
	{name: "panicpath"},
	{name: "ctxarg"},
	{name: "lintdirective"},
	{name: "maprange"},
	{name: "walltime", importPath: "repro/internal/tuner/walltimefixture"},
	{name: "parfold"},
	{name: "seedflow"},
	{name: "errcmp"},
	{name: "rngfield"},
	{name: "deadignore"},
}

// TestAnalyzersGolden runs the full suite over each fixture package and
// compares every diagnostic — analyzer name, position, and message — to
// the package's golden file. Each fixture contains at least one defect its
// analyzer must find (positive) and clean code it must not flag
// (negative): any extra, missing, or moved diagnostic fails.
func TestAnalyzersGolden(t *testing.T) {
	for _, fx := range fixturePkgs {
		name, importPath := fx.name, fx.importPath
		if importPath == "" {
			importPath = "repro/internal/fixtures/" + name
		}
		t.Run(name, func(t *testing.T) {
			loader, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), importPath)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, d := range Run([]*Package{pkg}, All()) {
				fmt.Fprintf(&got, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got.String(), want)
			}
		})
	}
}

// TestGoldenFilesHavePositives guards against a silently pacified suite:
// every analyzer must detect at least one seeded defect somewhere in the
// fixture corpus.
func TestGoldenFilesHavePositives(t *testing.T) {
	found := map[string]bool{}
	for _, fx := range fixturePkgs {
		data, err := os.ReadFile(filepath.Join("testdata", fx.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			parts := strings.SplitN(line, ": ", 3)
			if len(parts) == 3 {
				found[parts[1]] = true
			}
		}
	}
	for _, a := range All() {
		if !found[a.Name()] {
			t.Errorf("no fixture triggers analyzer %q; add a positive case under testdata/src", a.Name())
		}
	}
	if !found[directiveAnalyzer] {
		t.Errorf("no fixture triggers malformed-directive diagnostics")
	}
}
