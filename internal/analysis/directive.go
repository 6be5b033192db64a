package analysis

import (
	"go/token"
	"strings"
)

// ignorePrefix and fileIgnorePrefix are the two suppression forms. The
// reason is mandatory: suppressions without a stated justification defeat
// the point of running the suite at all.
const (
	ignorePrefix     = "//lint:ignore"
	fileIgnorePrefix = "//lint:file-ignore"
	// directiveAnalyzer is the pseudo-analyzer name used for diagnostics
	// about malformed directives themselves.
	directiveAnalyzer = "lintdirective"
)

// directive is one well-formed suppression comment. used flips when the
// directive silences at least one diagnostic in the current run; the
// deadignore pass reports the ones that never do.
type directive struct {
	pos      token.Position
	analyzer string
	isFile   bool
	used     bool
}

// suppressions records, per file, which (line, analyzer) pairs and which
// whole-file analyzers are silenced, keeping the directive identity so
// usage can be tracked.
type suppressions struct {
	// line maps filename -> line -> analyzer name -> directive.
	line map[string]map[int]map[string]*directive
	// file maps filename -> analyzer name -> directive.
	file map[string]map[string]*directive
	// all holds every well-formed directive in source order.
	all []*directive
}

// suppresses reports whether d is silenced by a directive, marking the
// directive used. A line directive covers the line it appears on and the
// line directly below it, so both end-of-line and standalone-comment
// placement work:
//
//	if a == b { //lint:ignore floateq exact sentinel compare
//
//	//lint:ignore floateq exact sentinel compare
//	if a == b {
func (s *suppressions) suppresses(d Diagnostic) bool {
	if d.Analyzer == directiveAnalyzer || d.Analyzer == deadIgnoreName {
		return false
	}
	if dir := s.file[d.Pos.Filename][d.Analyzer]; dir != nil {
		dir.used = true
		return true
	}
	byLine := s.line[d.Pos.Filename]
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := byLine[ln][d.Analyzer]; dir != nil {
			dir.used = true
			return true
		}
	}
	return false
}

// dead returns one diagnostic per directive that silenced nothing in this
// run, restricted to directives whose target analyzer actually ran (a
// walltime suppression is not stale just because the driver ran with
// -run errcmp) plus directives naming an analyzer that does not exist at
// all.
func (s *suppressions) dead(enabled map[string]bool) []Diagnostic {
	registry := map[string]bool{}
	for _, a := range All() {
		registry[a.Name()] = true
	}
	var out []Diagnostic
	for _, dir := range s.all {
		if dir.used {
			continue
		}
		form := "//lint:ignore"
		if dir.isFile {
			form = "//lint:file-ignore"
		}
		switch {
		case !registry[dir.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: deadIgnoreName,
				Pos:      dir.pos,
				Message:  form + " names unknown analyzer \"" + dir.analyzer + "\"; it can never suppress anything — fix the name or delete the directive",
			})
		case enabled[dir.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: deadIgnoreName,
				Pos:      dir.pos,
				Message:  form + " " + dir.analyzer + " suppresses no finding; the code it excused has moved or been fixed — delete the stale directive",
			})
		}
	}
	return out
}

// collectDirectives scans every comment of the package for lint
// directives. Malformed directives (unknown form, missing analyzer or
// reason) are returned as diagnostics so they fail the build instead of
// silently suppressing nothing.
func collectDirectives(pkg *Package) (*suppressions, []Diagnostic) {
	sup := &suppressions{
		line: map[string]map[int]map[string]*directive{},
		file: map[string]map[string]*directive{},
	}
	var diags []Diagnostic
	bad := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Analyzer: directiveAnalyzer,
			Pos:      pkg.Fset.Position(pos),
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				var rest string
				var isFile bool
				switch {
				case strings.HasPrefix(text, fileIgnorePrefix):
					rest, isFile = text[len(fileIgnorePrefix):], true
				case strings.HasPrefix(text, ignorePrefix):
					rest, isFile = text[len(ignorePrefix):], false
				case strings.HasPrefix(text, "//lint:"):
					bad(c.Pos(), "unknown lint directive; expected //lint:ignore or //lint:file-ignore")
					continue
				default:
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad(c.Pos(), "lint directive is missing the analyzer name")
					continue
				}
				if len(fields) < 2 {
					bad(c.Pos(), "lint directive is missing a reason; write //lint:ignore "+fields[0]+" <why this is safe>")
					continue
				}
				name := fields[0]
				pos := pkg.Fset.Position(c.Pos())
				dir := &directive{pos: pos, analyzer: name, isFile: isFile}
				sup.all = append(sup.all, dir)
				if isFile {
					byFile := sup.file[pos.Filename]
					if byFile == nil {
						byFile = map[string]*directive{}
						sup.file[pos.Filename] = byFile
					}
					byFile[name] = dir
					continue
				}
				byLine := sup.line[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]*directive{}
					sup.line[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = map[string]*directive{}
				}
				byLine[pos.Line][name] = dir
			}
		}
	}
	return sup, diags
}
