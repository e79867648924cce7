// Package analysistest is the // want comment harness for the gfvet
// analyzers: it loads a self-contained testdata module, runs analyzers
// over it, and matches every diagnostic against `// want "regexp"`
// comments in the testdata source. Each want must be satisfied by
// exactly one diagnostic on its line, and every diagnostic must be
// wanted — so the harness proves both that seeded violations are
// caught and that compliant code stays clean.
package analysistest

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphflow/internal/analysis"
)

// wantRe matches `// want "..."` with a quoted Go string (so testdata
// can escape quotes and backslashes).
var wantRe = regexp.MustCompile(`// want (".*")\s*$`)

// Run loads the module rooted at dir, runs the analyzers, and checks
// the diagnostics against the module's // want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	prog, err := analysis.Load(analysis.Config{Dir: dir})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, pkg := range prog.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("testdata must type-check; %s: %v", pkg.Path, terr)
		}
	}

	type want struct {
		file    string
		line    int
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			collectWants(t, prog, f, func(file string, line int, re *regexp.Regexp) {
				wants = append(wants, &want{file: file, line: line, re: re})
			})
		}
	}

	diags := analysis.Run(prog, analyzers)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// collectWants extracts the // want expectations of one file.
func collectWants(t *testing.T, prog *analysis.Program, f *ast.File, add func(string, int, *regexp.Regexp)) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.Contains(c.Text, "// want") {
					t.Errorf("%s: malformed want comment: %s", prog.Fset.Position(c.Pos()), c.Text)
				}
				continue
			}
			pattern, err := strconv.Unquote(m[1])
			if err != nil {
				t.Errorf("%s: unquoting want: %v", prog.Fset.Position(c.Pos()), err)
				continue
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Errorf("%s: compiling want %q: %v", prog.Fset.Position(c.Pos()), pattern, err)
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			add(pos.Filename, pos.Line, re)
		}
	}
}
