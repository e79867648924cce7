// Package analysis is the repo-native static-analysis framework behind
// cmd/gfvet. It is deliberately zero-dependency — stdlib go/parser,
// go/ast and go/types only, no golang.org/x/tools — because the suite
// is itself a CI gate and must build everywhere the engine builds.
//
// The framework loads the enclosing module from source (Load), type-
// checking packages in dependency order, and hands the resulting
// Program to analyzers. Analyzers enforce the engine's structural
// invariants (zero-alloc hot paths, cancellation polling, atomic
// discipline, logging and metric-registration hygiene); each reports
// position-anchored diagnostics through a Reporter.
//
// Source annotations drive and waive the checks:
//
//	//gf:noalloc                — this function (and every same-module
//	                              function it statically calls) must not
//	                              contain allocation-causing constructs.
//	//gf:allowalloc <reason>    — on a line: waive noalloc findings on
//	                              that line (e.g. a guarded warm-up
//	                              make). On a function declaration: the
//	                              noalloc traversal does not descend
//	                              into this function (a known cold
//	                              branch of a hot caller).
//	//gf:stage                  — this function is an executor stage
//	                              body: its outermost loops must reach a
//	                              cancellation poll (see ctxpoll).
//	//gf:pollpoint              — calling this function counts as
//	                              polling for cancellation.
//	//gf:nopoll <reason>        — on a loop: waive ctxpoll for it.
//	//gf:nonatomic <reason>     — on a line: waive atomicfield for a
//	                              deliberate plain access to an
//	                              atomically-used field.
//
// Waivers with a <reason> placeholder require one; an empty reason is
// itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a loaded Program.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and -only.
	Name string
	// Doc is a one-line description shown by gfvet -list.
	Doc string
	// Run inspects the program and reports findings.
	Run func(prog *Program, report Reporter)
}

// Reporter receives one diagnostic at a source position.
type Reporter func(pos token.Pos, format string, args ...any)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one parsed, type-checked package of the loaded module.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package (possibly partial on type errors).
	Pkg *types.Package
	// Info carries the type-checker's expression, definition, use and
	// selection facts for Files.
	Info *types.Info
	// TypeErrors are the type-checking problems encountered, if any.
	TypeErrors []error
}

// FuncInfo pairs a declared function with its body and home package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is a fully loaded module: every package parsed and
// type-checked in dependency order over one shared FileSet.
type Program struct {
	Fset *token.FileSet
	// Packages in dependency order (imports precede importers).
	Packages []*Package
	// ModulePath is the module's declared path (from go.mod).
	ModulePath string
	// ModuleDir is the directory containing go.mod.
	ModuleDir string
	// Sizes is the target's memory layout, for zero-size exemptions.
	Sizes types.Sizes

	byPath map[string]*Package
	funcs  map[*types.Func]*FuncInfo
	// directives maps filename -> line -> directive name -> argument.
	directives map[string]map[int]map[string]string
}

// FuncDecl resolves a types.Func to its declaration within the module,
// or nil for functions declared outside it (stdlib, interface methods).
func (p *Program) FuncDecl(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return p.funcs[fn]
}

// buildIndexes populates the function and directive indexes after type
// checking.
func (p *Program) buildIndexes() {
	p.funcs = make(map[*types.Func]*FuncInfo)
	p.directives = make(map[string]map[int]map[string]string)
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcs[obj] = &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, arg, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					byLine := p.directives[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]string)
						p.directives[pos.Filename] = byLine
					}
					m := byLine[pos.Line]
					if m == nil {
						m = make(map[string]string)
						byLine[pos.Line] = m
					}
					m[name] = arg
				}
			}
		}
	}
}

// parseDirective splits "//gf:name arg..." into (name, arg, true).
func parseDirective(text string) (name, arg string, ok bool) {
	const prefix = "//gf:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

// DirectiveAt reports whether the named directive annotates the line of
// pos — either as a trailing comment on that line or as a comment on
// the line directly above — and returns its argument.
func (p *Program) DirectiveAt(pos token.Pos, name string) (arg string, ok bool) {
	position := p.Fset.Position(pos)
	byLine := p.directives[position.Filename]
	if byLine == nil {
		return "", false
	}
	for _, line := range [2]int{position.Line, position.Line - 1} {
		if m := byLine[line]; m != nil {
			if a, ok := m[name]; ok {
				return a, true
			}
		}
	}
	return "", false
}

// FuncDirective reports whether the function declaration carries the
// named directive in its doc comment and returns its argument.
func FuncDirective(fd *ast.FuncDecl, name string) (arg string, ok bool) {
	if fd == nil || fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		if n, a, isDir := parseDirective(c.Text); isDir && n == name {
			return a, true
		}
	}
	return "", false
}

// StaticCallee resolves a call expression to the declared function it
// statically invokes: a package-level function or a method on a
// concrete receiver. Interface-method calls, calls through function
// values and built-ins resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// A method expression or method value on a concrete type still
			// names its declared *types.Func; interface methods do too, but
			// their "declaration" lives outside the module, so FuncDecl
			// resolution naturally prunes them.
			if fn, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// WalkParents traverses root in depth-first order, calling visit with
// each node and the stack of its ancestors (nearest last). Returning
// false skips the node's children.
func WalkParents(root ast.Node, visit func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			// Inspect delivers no matching nil for a pruned node, so the
			// stack must not grow here.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// ExprString renders the subset of expressions the analyzers compare
// structurally (identifiers, selectors, index, slice, star, paren).
// Unsupported forms render as a unique placeholder so they never
// compare equal.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.BinaryExpr:
		// Deterministic arithmetic indexes (cols[pw+i]) must compare equal
		// across the two sides of a self-feed append.
		return ExprString(e.X) + e.Op.String() + ExprString(e.Y)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	}
	return fmt.Sprintf("<%T@%d>", e, e.Pos())
}

// Run executes the analyzers over the program and returns their
// diagnostics sorted by position. Type errors surface first, as
// "typecheck" diagnostics: an analyzer verdict over a package that did
// not type-check is not trustworthy.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				d.Pos = terr.Fset.Position(terr.Pos)
				d.Message = terr.Msg
			}
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		name := a.Name
		a.Run(prog, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(pos),
				Analyzer: name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Noalloc, Ctxpoll, Atomicfield, Logdiscipline, Metricreg}
}
