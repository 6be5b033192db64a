// Package analysis is a small, stdlib-only static-analysis framework for
// this repository. It loads and type-checks every package of the module
// from source (go/parser + go/types, no golang.org/x/tools), runs a set of
// repo-specific analyzers over the typed syntax trees, and reports
// diagnostics with file:line:column positions.
//
// The analyzers enforce the invariants the reproduction depends on:
// deterministic randomness (every RNG is injected and seeded), float-safe
// comparisons, checked errors, and error returns instead of panics in
// library code. Copied locks are left to go vet's copylocks check.
//
// Findings can be suppressed at a single site with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it, or for a
// whole file with
//
//	//lint:file-ignore <analyzer> <reason>
//
// Both forms require a non-empty reason; a directive without one is itself
// reported as a diagnostic (analyzer "lintdirective").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check. Run inspects a single type-checked package
// through the Pass and reports findings with Pass.Reportf.
type Analyzer interface {
	// Name is the short identifier used in output and in //lint:ignore
	// directives.
	Name() string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc() string
	// Run analyzes one package.
	Run(p *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Pkg  *Package
	name string

	mu    sync.Mutex
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in registration order: the style
// and hygiene analyzers from the first lint layer, then the
// determinism-contract analyzers built on the dataflow layer, then the
// suppression-rot check.
func All() []Analyzer {
	return []Analyzer{
		GlobalRand{},
		FloatEq{},
		UncheckedErr{},
		PanicPath{},
		CtxArg{},
		MapRange{},
		Walltime{},
		ParFold{},
		SeedFlow{},
		ErrCmp{},
		RNGField{},
		DeadIgnore{},
	}
}

// ByNames resolves a comma-separated analyzer name list against the full
// suite, preserving registration order. Unknown names are returned in the
// second result so drivers can report them.
func ByNames(names string) ([]Analyzer, []string) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []Analyzer
	for _, a := range All() {
		if want[a.Name()] {
			out = append(out, a)
			delete(want, a.Name())
		}
	}
	unknown := make([]string, 0, len(want))
	for n := range want {
		unknown = append(unknown, n) //lint:ignore maprange sorted on the next line
	}
	sort.Strings(unknown)
	return out, unknown
}

// Run applies every analyzer to every package, filters suppressed
// findings, and returns the surviving diagnostics sorted by position.
// Packages are analyzed concurrently; type information is read-only by
// this point, so the only shared mutable state is the diagnostic list.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var (
		mu  sync.Mutex
		out []Diagnostic
		wg  sync.WaitGroup
	)
	enabled := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name()] = true
	}
	for _, pkg := range pkgs {
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			diags := runPackage(pkg, analyzers, enabled)
			mu.Lock()
			out = append(out, diags...)
			mu.Unlock()
		}(pkg)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func runPackage(pkg *Package, analyzers []Analyzer, enabled map[string]bool) []Diagnostic {
	sup, supDiags := collectDirectives(pkg)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Pkg: pkg, name: a.Name()}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppresses(d) {
			kept = append(kept, d)
		}
	}
	// The deadignore pass runs over the suppression table once every
	// enabled analyzer has reported: only now is "this directive silenced
	// nothing" a fact of the run rather than a race against later passes.
	if enabled[deadIgnoreName] {
		supDiags = append(supDiags, sup.dead(enabled)...)
	}
	return append(kept, supDiags...)
}

// inspect walks every file of the package in source order.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
