package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Metricreg moves promlint's naming rules from scrape time to compile
// time: every metric family registered on a metrics.Registry must use
// a compile-time string constant as its name (so the exposition
// surface is statically known), the name must be well-formed, counters
// must end in _total, histograms in a unit suffix (_seconds or
// _bytes), gauges must not pretend to be counters, no family may end
// in a reserved histogram sample suffix, and no two distinct
// registration sites may claim the same family — except func-series
// registrations of the same kind, which share a family by design (that
// is how multi-series func metrics are assembled).
var Metricreg = &Analyzer{
	Name: "metricreg",
	Doc:  "metric registration names must be constants that satisfy the Prometheus naming rules, with no duplicate families",
	Run:  runMetricreg,
}

// registryMethods maps Registry registration methods to the metric
// kind they create and whether they are shareable func-series
// registrations.
var registryMethods = map[string]struct {
	kind   string
	isFunc bool
}{
	"CounterVec":        {"counter", false},
	"CounterFunc":       {"counter", true},
	"GaugeFunc":         {"gauge", true},
	"Histogram":         {"histogram", false},
	"HistogramVec":      {"histogram", false},
	"RegisterHistogram": {"histogram", false},
}

// reservedSuffixes are the histogram sample suffixes the text
// exposition appends itself; a family name ending in one collides with
// its own samples.
var reservedSuffixes = []string{"_bucket", "_sum", "_count"}

func runMetricreg(prog *Program, report Reporter) {
	type site struct {
		pos    token.Pos
		name   string
		kind   string
		isFunc bool
	}
	var sites []site

	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				m, isReg := registryMethods[sel.Sel.Name]
				if !isReg || !isRegistryRecv(pkg.Info, sel) {
					return true
				}
				nameArg := call.Args[0]
				tv, ok := pkg.Info.Types[nameArg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					report(nameArg.Pos(), "metric name passed to %s must be a compile-time string constant", sel.Sel.Name)
					return true
				}
				name := constant.StringVal(tv.Value)
				checkMetricName(report, nameArg.Pos(), name, m.kind)
				sites = append(sites, site{nameArg.Pos(), name, m.kind, m.isFunc})
				return true
			})
		}
	}

	// Duplicate families across distinct registration sites. Func-series
	// sites may share a family of the same kind; everything else is a
	// collision.
	byName := make(map[string][]site)
	for _, s := range sites {
		byName[s.name] = append(byName[s.name], s)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		group := byName[n]
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].pos < group[j].pos })
		allFuncSameKind := true
		for _, s := range group {
			if !s.isFunc || s.kind != group[0].kind {
				allFuncSameKind = false
				break
			}
		}
		if allFuncSameKind {
			continue
		}
		first := prog.Fset.Position(group[0].pos)
		for _, s := range group[1:] {
			report(s.pos, "duplicate registration of metric family %q (first registered at %s)", n, first)
		}
	}
}

// checkMetricName applies the promlint naming rules to one family name
// at compile time.
func checkMetricName(report Reporter, pos token.Pos, name, kind string) {
	if !validMetricName(name) {
		report(pos, "invalid metric name %q: must match [a-zA-Z_:][a-zA-Z0-9_:]*", name)
		return
	}
	for _, suf := range reservedSuffixes {
		if strings.HasSuffix(name, suf) {
			report(pos, "metric name %q ends in reserved histogram suffix %q", name, suf)
			return
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			report(pos, "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			report(pos, "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			report(pos, "histogram %q must carry a unit suffix (_seconds or _bytes)", name)
		}
	}
}

// isRegistryRecv reports whether the method's receiver is a (pointer
// to a) named type called Registry — the repo's metrics registry; the
// name-based match keeps the analyzer loadable over testdata modules.
func isRegistryRecv(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == "Registry"
}

// validMetricName mirrors the registry's runtime validName check.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
