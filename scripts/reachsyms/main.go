// Command reachsyms is the module's architecture check: one table of
// rules (rules below), each a contract that keeps one way of doing a job
// single, checked over the identifiers, imports and declarations of the
// gated module's packages. TestModuleRules runs the whole table over the
// module, so go test ./... enforces it; this command runs the same check.
//
// The last rule is symbol reach: it fails when an exported package-level
// identifier under internal/ (a func, type, const, var or method) is
// reached from no non-test code. Roots are every declaration outside
// internal/ — the binaries, the scripts, the root package, the examples
// and the bench/ module — plus init functions, the test harness packages
// and blank package-level variables whose initializer calls a function
// (kept for its side effects). A declaration is reached when a reached
// declaration names it; a reference from inside its own declaration does
// not count, and neither does one from a _test.go file. A method is also
// reached when its receiver type is reached and implements an interface,
// declared anywhere in the loaded code or the standard library it
// imports, that declares the method (String through fmt.Stringer,
// ServeHTTP through http.Handler).
//
// scripts/reachsyms/allow.txt names the symbols kept anyway, one per
// line with one reason: interface (a use the checker cannot see),
// test-seam (an accessor a test in another package reads; the line names
// the test) or planned:<item> (a ROADMAP item that will use it). An entry
// whose symbol is reached or no longer exists is stale and fails the
// check too. A test oracle is not kept in non-test code at all: a
// reference is a package-level declaration of a _test.go file named
// reference* or legacy*, and rule references-held holds each to a Test
// or Fuzz function of its package.
//
// It uses only the standard library: go list for file sets and the
// standard library's export data, go/parser and go/types for the
// module's packages.
//
// Usage, from the repository root:
//
//	go run ./scripts/reachsyms
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A rule is one architecture contract of the gated module.
type rule struct {
	Name     string
	Contract string // why the rule holds; printed with each finding
	Scope    scope
	check    checker
}

// A checker returns a rule's findings over the packages in its scope.
type checker func(l *loader, in []*loaded) ([]finding, error)

// A firer names what a node of a scoped file fires on, or returns "".
type firer func(info *types.Info, n ast.Node) string

// A scope selects packages of the gated module by import path relative
// to its root: "internal/censor" is that package, "internal/..." the
// tree below internal/, "..." every package and "." the root package.
// Each pattern of In must match a package, so a renamed package cannot
// switch a rule off.
type scope struct {
	In, Except []string
	Tests      bool // the packages' _test.go files too
}

// gated is what the reach rules hold to account: every package under
// internal/ but the two test harnesses, whose exports are not candidates
// and whose references count as reached.
var gated = scope{
	In:     []string{"internal/..."},
	Except: []string{"internal/measure/enginetest", "internal/obs/promtest"},
}

// rules is the table, with symbol reach reading allowFile.
func rules(allowFile string) []rule {
	return []rule{{
		Name: "no-global-network-cache",
		Contract: "state derived from a network hangs off sim.Derive and dies with the network; " +
			"a package-level cache keyed by *sim.Network pins every network the process ever built",
		Scope: scope{In: []string{"internal/...", "cmd/..."}, Tests: true},
		check: inFiles(networkCache),
	}, {
		Name: "one-publication-pointer",
		Contract: "everything a request is answered from is one epoch behind one pointer; " +
			"a second published pointer beside it is a second thing a handler can read at a different moment",
		Scope: scope{In: []string{"internal/service"}},
		check: inFiles(publication),
	}, {
		Name: "censor-keeps-address-sets",
		Contract: "a monitoring router's capture draws the day's addressed column into one address set per day " +
			"(Censor.observedIDs over sim.Observer.DrawDayAt), and the victim's netDb view is one walk over DrawDay; " +
			"ObserveDay would build a peer-index list per observer-day that is read once",
		Scope: scope{In: []string{"internal/censor"}},
		check: inFiles(selector("ObserveDay")),
	}, {
		Name: "one-blacklist-build",
		Contract: "a blacklist is the union of the first k monitoring routers' router-days in the window, " +
			"built from scratch per sweep cell (censor.Sweep.Blacklist); " +
			"a sliding multiset in the censor is the first step back to a second way of building it",
		Scope: scope{In: []string{"internal/censor"}},
		check: inFiles(identContaining("WindowCounter")),
	}, {
		Name: "one-union-path",
		Contract: "how many distinct peers the first k observers see on a day is counted one way " +
			"(core's fleetDays claims into a sim.ClaimSet per day), and every fan-out is a pool.FanOut task, " +
			"a trust sweep's whole row included; a capture grid, a union helper or a row planner is a second way back",
		Scope: scope{In: []string{"..."}},
		check: inFiles(identContaining("ObserveGrid", "UnionObserveDay", "FanRows", "PlanRows", "RowPlan")),
	}, {
		Name: "one-arms-race-row",
		Contract: "a trust row returns its horizon as one result and a backend builds its own handout API; " +
			"a per-day trust cell, a row that advances to a day, or a handout API built beside its backend " +
			"is the second way back",
		Scope: scope{In: []string{"internal/distrib", "internal/core", "internal/service"}},
		check: inFiles(identContaining("NewHandoutAPI", "TrustCell", "advanceTo")),
	}, {
		Name: "one-pool",
		Contract: "every worker pool is internal/pool: FanOut for indexed tasks, Run for per-worker loops, " +
			"Width for the auto width; a WaitGroup anywhere else under internal/ is a second pool beside it",
		Scope: scope{In: []string{"internal/..."}, Except: []string{"internal/pool"}},
		check: inFiles(object("sync", "WaitGroup")),
	}, {
		Name: "below-the-campaign",
		Contract: "censor, distrib and service schedule on internal/pool; importing internal/measure, " +
			"the Section 5 campaign, links it into the blocking analyses and the daemon for nothing they use",
		Scope: scope{In: []string{"internal/censor", "internal/distrib", "internal/service"}},
		check: importsNone("internal/measure"),
	}, {
		Name: "one-reachability-rule",
		Contract: "whether a handed-out bridge is reachable from behind the firewall is one rule, " +
			"censor.AddrIndex.BridgeUsable, for censor's bridge evaluation and distrib's sweeps alike; " +
			"its introducer draw lives there, and distrib reading the introducer pool is a second copy of the rule",
		Scope: scope{In: []string{"internal/distrib"}},
		check: inFiles(selector("Introducers")),
	}, {
		Name: "one-address-table",
		Contract: "every published address has one ID, the network's (sim.AddrTable); a map keyed by netip.Addr " +
			"in the census, the censor, distrib or the daemon is a second address table beside it",
		Scope: scope{In: []string{"internal/measure", "internal/censor", "internal/distrib", "internal/service"}},
		check: inFiles(keyedMap("net/netip", "Addr")),
	}, {
		Name: "one-peer-index",
		Contract: "a peer has one ID in the census, its network index (sim.Sighting.Peer): the Dataset keeps its tracks " +
			"and the fold its state by that index; a map keyed by netdb.Hash in measure is a second peer index beside it",
		Scope: scope{In: []string{"internal/measure"}},
		check: inFiles(keyedMap("internal/netdb", "Hash")),
	}, {
		Name: "one-exit-site",
		Contract: "every CLI exits from cli.Main only, after its deferred profile and trace stops have run " +
			"(internal/faults keeps the injected exit); an os.Exit or log.Fatal anywhere else skips them",
		Scope: scope{In: []string{"cmd/...", "internal/..."}, Except: []string{"internal/cli", "internal/faults/..."}},
		check: inFiles(exits),
	}, {
		Name: "one-study-run",
		Contract: "the study binaries are category lists around studycli.Run, which owns the flags, the network line, " +
			"the IDs, RunAll and the writers; a command that builds or runs a study itself is a second copy of the run",
		Scope: scope{In: []string{"cmd/..."}},
		check: inFiles(selector("RunAll", "NewStudy")),
	}, {
		Name: "tools-skip-the-study",
		Contract: "i2pdistribd, i2pnetdb and i2psim run no study: reaching internal/measure (internal/core imports it) " +
			"links the Section 5 campaign, and its idle counter families onto the daemon's /metrics, for nothing they use",
		Scope: scope{In: []string{"cmd/i2pdistribd", "cmd/i2pnetdb", "cmd/i2psim"}},
		check: importsNone("internal/measure"),
	}, {
		Name: "observers-memoize-nothing",
		Contract: "an observer's draw is a pure function of (seed, day); what is worth keeping of it is kept by " +
			"the caller that revisits the day (a censor's address IDs, the victim's netDb view); " +
			"sim importing the memo package is the first step back to an observer-side memo",
		Scope: scope{In: []string{"internal/sim"}},
		check: importsNone("internal/cache"),
	}, {
		Name: "package-reach",
		Contract: "a package under internal/ exists because a binary, a script or the root package reaches it " +
			"(enginetest and promtest are the two test harnesses); an example or a test is a consumer, not a reason",
		Scope: gated,
		check: reachedFrom("cmd/...", "scripts/...", "."),
	}, {
		Name: "references-held",
		Contract: "a reference, the old algorithm a rewrite is compared against, is a package-level declaration " +
			"of a _test.go file named reference* or legacy*, reached from a Test or Fuzz function of its package; " +
			"one no test reaches guards nothing, and one in non-test code under internal/ is production code kept for a test",
		Scope: scope{In: []string{"..."}, Tests: true},
		check: referencesHeld,
	}, {
		Name: "symbol-reach",
		Contract: "an exported identifier under internal/ is reached from non-test code " +
			"(a binary, a script, the root package, an example or bench/); delete the symbol, " +
			"or allowlist it with a reason in scripts/reachsyms/allow.txt, and delete a stale entry",
		Scope: gated,
		check: symbolReach(allowFile),
	}}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reachsyms: ")
	l, err := load(".", "bench")
	if err != nil {
		log.Fatal(err)
	}
	findings, err := l.check(rules(filepath.Join("scripts", "reachsyms", "allow.txt")))
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reachsyms: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// A finding is one failure of a rule.
type finding struct {
	Pos      string // file:line, relative to the gated module's root
	Rule     string
	What     string // the identifier, import, package or symbol that fired
	Contract string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s: %s (%s)", f.Pos, f.Rule, f.What, f.Contract)
}

// load type-checks the non-test packages of the modules in dirs; the
// first is the gated one, which the scopes select from.
func load(dirs ...string) (*loader, error) {
	l, err := newLoader(dirs[0])
	if err != nil {
		return nil, err
	}
	for i, dir := range dirs {
		if err := l.loadModule(dir, i == 0); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// check returns the findings of rules, sorted by position.
func (l *loader) check(rules []rule) ([]finding, error) {
	var findings []finding
	for _, r := range rules {
		in, err := l.scoped(r.Scope)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %v", r.Name, err)
		}
		fs, err := r.check(l, in)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %v", r.Name, err)
		}
		for _, f := range fs {
			f.Rule, f.Contract = r.Name, r.Contract
			findings = append(findings, f)
		}
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.Pos, b.Pos), strings.Compare(a.Rule, b.Rule), strings.Compare(a.What, b.What))
	})
	return findings, nil
}

// match reports whether the relative import path rel matches one of the
// scope patterns.
func match(patterns []string, rel string) bool {
	for _, pat := range patterns {
		tree, ok := strings.CutSuffix(pat, "/...")
		if pat == "..." || pat == rel || ok && (rel == tree || strings.HasPrefix(rel, tree+"/")) {
			return true
		}
	}
	return false
}

// scoped returns the gated module's packages in s, each followed by its
// test packages when s.Tests is set.
func (l *loader) scoped(s scope) ([]*loaded, error) {
	for _, pat := range s.In {
		if !slices.ContainsFunc(l.order, func(lp *loaded) bool { return lp.main && match([]string{pat}, lp.rel) }) {
			return nil, fmt.Errorf("scope %s matches no package", pat)
		}
	}
	var in []*loaded
	for _, lp := range l.order {
		if !lp.main || !match(s.In, lp.rel) || match(s.Except, lp.rel) {
			continue
		}
		in = append(in, lp)
		if s.Tests {
			tests, err := l.tests(lp)
			if err != nil {
				return nil, err
			}
			in = append(in, tests...)
		}
	}
	return in, nil
}

// inFiles returns a check that reports every node of the scoped files
// that fire names, by the name it returns.
func inFiles(fire firer) checker {
	return func(l *loader, in []*loaded) ([]finding, error) {
		var out []finding
		for _, lp := range in {
			for _, f := range lp.files {
				ast.Inspect(f, func(n ast.Node) bool {
					if what := fire(lp.info, n); what != "" {
						out = append(out, finding{Pos: l.position(n.Pos()), What: what})
					}
					return true
				})
			}
		}
		return out, nil
	}
}

// networkCache fires on a package-level var whose type is a sync.Map, a
// pointer to one, or a map keyed by *sim.Network.
func networkCache(info *types.Info, n ast.Node) string {
	id, ok := n.(*ast.Ident)
	if !ok {
		return ""
	}
	v, ok := info.Defs[id].(*types.Var)
	if !ok || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	m, isMap := v.Type().Underlying().(*types.Map)
	if named(v.Type(), "sync", "Map") || isMap && named(m.Key(), "internal/sim", "Network") {
		return "var " + id.Name + " " + types.TypeString(v.Type(), (*types.Package).Name)
	}
	return ""
}

// named reports whether t, or the type t points to, is the named type
// name of the package whose import path is pkg or ends in "/"+pkg.
func named(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Name() == name &&
		(n.Obj().Pkg().Path() == pkg || strings.HasSuffix(n.Obj().Pkg().Path(), "/"+pkg))
}

// publication fires on atomic.Value and on atomic.Pointer of any type
// but epoch and ProberState.
func publication(info *types.Info, n ast.Node) string {
	id, ok := n.(*ast.Ident)
	if !ok {
		return ""
	}
	switch obj := info.Uses[id]; {
	case isObj(obj, "sync/atomic", "Value"):
		return "atomic.Value"
	case isObj(obj, "sync/atomic", "Pointer"):
		arg := info.Instances[id].TypeArgs.At(0)
		if n, ok := types.Unalias(arg).(*types.Named); ok && slices.Contains([]string{"epoch", "ProberState"}, n.Obj().Name()) {
			return ""
		}
		return "atomic.Pointer[" + types.TypeString(arg, (*types.Package).Name) + "]"
	}
	return ""
}

// keyedMap returns a firer for a map type whose key is the named type
// name of package pkg (matched as named matches it).
func keyedMap(pkg, name string) firer {
	return func(info *types.Info, n ast.Node) string {
		if m, ok := n.(*ast.MapType); ok && named(info.TypeOf(m.Key), pkg, name) {
			return types.TypeString(info.TypeOf(m), (*types.Package).Name)
		}
		return ""
	}
}

// exits fires on os.Exit and log.Fatal*, however os and log are imported.
func exits(info *types.Info, n ast.Node) string {
	id, ok := n.(*ast.Ident)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if ok && (isObj(fn, "os", "Exit") || fn.Pkg() != nil && fn.Pkg().Path() == "log" && strings.HasPrefix(fn.Name(), "Fatal")) {
		return fn.FullName()
	}
	return ""
}

// object returns a firer for an identifier that denotes the object name of
// the package whose import path is pkgPath, however it is imported.
func object(pkgPath, name string) firer {
	return func(info *types.Info, n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && isObj(info.Uses[id], pkgPath, name) {
			return pkgPath + "." + name
		}
		return ""
	}
}

func isObj(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// selector returns a firer for a selector named one of names that
// denotes a function or method, called or taken as a value. A field of
// another type, such as a RouterAddress's Introducers list, does not
// fire.
func selector(names ...string) firer {
	return func(info *types.Info, n ast.Node) string {
		if s, ok := n.(*ast.SelectorExpr); ok && slices.Contains(names, s.Sel.Name) && info.Uses[s.Sel] != nil {
			if _, ok := info.Uses[s.Sel].Type().Underlying().(*types.Signature); ok {
				return "." + s.Sel.Name
			}
		}
		return ""
	}
}

// identContaining returns a firer for an identifier that contains one
// of names.
func identContaining(names ...string) firer {
	return func(_ *types.Info, n ast.Node) string {
		id, ok := n.(*ast.Ident)
		if ok && slices.ContainsFunc(names, func(s string) bool { return strings.Contains(id.Name, s) }) {
			return id.Name
		}
		return ""
	}
}

// importsNone returns a check that reports each import, by a scoped
// package, of target or of a package that imports it.
func importsNone(target string) checker {
	return func(l *loader, in []*loaded) ([]finding, error) {
		var t *loaded
		for _, lp := range l.order {
			if lp.main && lp.rel == target {
				t = lp
			}
		}
		if t == nil {
			return nil, fmt.Errorf("import %s matches no package", target)
		}
		var out []finding
		for _, lp := range in {
			for _, f := range lp.files {
				for _, spec := range f.Imports {
					path, _ := strconv.Unquote(spec.Path.Value)
					dep := l.pkgs[path]
					if dep == nil || !l.closure(dep.pkg)[t.pkg] {
						continue
					}
					what := lp.rel + " imports " + target
					if dep != t {
						what = lp.rel + " imports " + dep.rel + ", which imports " + target
					}
					out = append(out, finding{Pos: l.position(spec.Pos()), What: what})
				}
			}
		}
		return out, nil
	}
}

// reachedFrom returns a check that reports each scoped package outside
// the import closure of the gated module's packages matching roots.
func reachedFrom(roots ...string) checker {
	return func(l *loader, in []*loaded) ([]finding, error) {
		var from []*types.Package
		for _, lp := range l.order {
			if lp.main && match(roots, lp.rel) {
				from = append(from, lp.pkg)
			}
		}
		reached := l.closure(from...)
		var out []finding
		for _, lp := range in {
			if !reached[lp.pkg] {
				pos := l.rel(lp.list.Dir) + ":1"
				if len(lp.files) > 0 {
					pos = l.position(lp.files[0].Package)
				}
				out = append(out, finding{Pos: pos, What: lp.rel + " is imported by no binary, script or the root package"})
			}
		}
		return out, nil
	}
}

// closure returns the module packages that pkgs are or import.
func (l *loader) closure(pkgs ...*types.Package) map[*types.Package]bool {
	seen := map[*types.Package]bool{}
	for len(pkgs) > 0 {
		p := pkgs[len(pkgs)-1]
		pkgs = pkgs[:len(pkgs)-1]
		if seen[p] || l.pkgs[p.Path()] == nil || l.pkgs[p.Path()].pkg != p {
			continue
		}
		seen[p] = true
		pkgs = append(pkgs, p.Imports()...)
	}
	return seen
}

// referencesHeld reports each reference of a scoped package's test files
// that no Test or Fuzz function of the package reaches, and each non-test
// function, method or type under internal/ named as a reference.
func referencesHeld(l *loader, in []*loaded) ([]finding, error) {
	var out []finding
	tests := map[string][]*ast.File{} // test files by package directory
	for _, lp := range in {
		for _, f := range lp.files {
			if strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go") {
				tests[lp.rel] = append(tests[lp.rel], f)
				continue
			}
			if !match([]string{"internal/..."}, lp.rel) {
				continue
			}
			for _, d := range fileDecls(f) {
				if d.isReference() {
					out = append(out, finding{Pos: l.position(d.pos), What: d.what() + " is a reference outside a _test.go file"})
				}
			}
		}
	}
	for _, files := range tests {
		for _, d := range unheld(files) {
			out = append(out, finding{Pos: l.position(d.pos), What: d.what() + " is reached from no Test or Fuzz function of its package"})
		}
	}
	return out, nil
}

// A decl is one package-level name a file declares.
type decl struct {
	name string
	recv string   // the receiver type's name, for a method
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	pos  token.Pos
}

// isReference reports whether d is a function, method or type named
// Reference or reference* or legacy*.
func (d decl) isReference() bool {
	if _, value := d.node.(*ast.ValueSpec); value {
		return false
	}
	return d.name == "Reference" || strings.HasPrefix(d.name, "reference") || strings.HasPrefix(d.name, "legacy")
}

func (d decl) what() string {
	if d.recv != "" {
		return d.recv + "." + d.name
	}
	return d.name
}

// fileDecls returns f's package-level declarations, methods included.
func fileDecls(f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, decl{name: d.Name.Name, recv: recvName(d), node: d, pos: d.Name.Pos()})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, decl{name: s.Name.Name, node: s, pos: s.Name.Pos()})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						out = append(out, decl{name: id.Name, node: s, pos: id.Pos()})
					}
				}
			}
		}
	}
	return out
}

// recvName returns the name of a method's receiver type, or "".
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// unheld returns the references among one package's test-file
// declarations that no Test or Fuzz function of those files reaches. Test
// packages are checked without their function bodies, so the walk
// resolves names, not objects: an identifier reaches every test-file
// declaration of that name, a method named by a selector included, and a
// reached type reaches its test-file methods.
func unheld(files []*ast.File) []decl {
	byName := map[string][]ast.Node{}
	methods := map[string][]ast.Node{} // by receiver type name
	var work []ast.Node
	var refs []decl
	for _, f := range files {
		for _, d := range fileDecls(f) {
			byName[d.name] = append(byName[d.name], d.node)
			if d.recv != "" {
				methods[d.recv] = append(methods[d.recv], d.node)
			}
			if _, fn := d.node.(*ast.FuncDecl); fn && d.recv == "" && (strings.HasPrefix(d.name, "Test") || strings.HasPrefix(d.name, "Fuzz")) {
				work = append(work, d.node)
			}
			if d.isReference() {
				refs = append(refs, d)
			}
		}
	}
	reached := map[ast.Node]bool{}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[n] {
			continue
		}
		reached[n] = true
		if ts, ok := n.(*ast.TypeSpec); ok {
			work = append(work, methods[ts.Name.Name]...)
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				work = append(work, byName[id.Name]...)
			}
			return true
		})
	}
	return slices.DeleteFunc(refs, func(d decl) bool { return reached[d.node] })
}

// symbolReach returns the symbol reach check: the unreached exported
// declarations of the scoped packages and the stale or malformed
// entries of allowFile.
func symbolReach(allowFile string) checker {
	return func(l *loader, in []*loaded) ([]finding, error) {
		g := l.graph(in)
		ifaces := l.interfaces()
		allow, findings, err := readAllow(allowFile)
		if err != nil {
			return nil, err
		}
		bySymbol := make(map[string]types.Object, len(g.candidates))
		for _, c := range g.candidates {
			bySymbol[c.symbol] = c.obj
		}

		reached := g.reach(g.roots, ifaces)
		var kept []types.Object
		for sym, pos := range allow {
			obj, ok := bySymbol[sym]
			switch {
			case !ok:
				findings = append(findings, finding{Pos: pos, What: sym + " is allowlisted but names no exported symbol under internal/"})
			case reached[obj]:
				findings = append(findings, finding{Pos: pos, What: sym + " is allowlisted but reached: delete the entry"})
			default:
				kept = append(kept, obj)
			}
		}
		// What an allowlisted symbol uses is kept with it.
		reached = g.reach(append(slices.Clone(g.roots), kept...), ifaces)
		for _, c := range g.candidates {
			if _, ok := allow[c.symbol]; ok || reached[c.obj] {
				continue
			}
			if c.recv != nil && !reached[c.recv] {
				continue // the receiver type is reported, not each method
			}
			findings = append(findings, finding{Pos: l.position(c.obj.Pos()), What: c.symbol + " is reached by no non-test code"})
		}
		return findings, nil
	}
}

// loader type-checks module packages in dependency order, importing the
// standard library from the export data go list reports.
type loader struct {
	fset   *token.FileSet
	root   string // the gated module's directory
	std    types.Importer
	export map[string]string  // export data files by standard import path
	pkgs   map[string]*loaded // module packages by import path
	order  []*loaded
}

type loaded struct {
	rel   string // import path relative to its module's root, "." for the root
	main  bool   // in the gated module
	list  listed
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) (*loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:   token.NewFileSet(),
		root:   root,
		export: map[string]string{},
		pkgs:   map[string]*loaded{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return l, nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// listed is the part of go list -json this program reads.
type listed struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	Module       *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// loadModule type-checks the non-test files of every package of the
// module in dir that is not loaded yet. go list -deps prints a package
// after everything it imports.
func (l *loader) loadModule(dir string, main bool) error {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Standard {
			l.export[p.ImportPath] = p.Export
			continue
		}
		if p.Module == nil || !p.Module.Main {
			continue
		}
		if p.Error != nil {
			return fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		files, err := l.parse(p.Dir, p.GoFiles)
		if err != nil {
			return err
		}
		pkg, info, err := l.typeCheck(p.ImportPath, files, false)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		rel := cmp.Or(strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/"), ".")
		lp := &loaded{rel: rel, main: main, list: p, pkg: pkg, files: files, info: info}
		l.pkgs[p.ImportPath] = lp
		l.order = append(l.order, lp)
	}
	return nil
}

// tests returns lp's _test.go files as packages: the in-package ones
// checked with lp's own files, the external test package on its own.
// Only package-level declarations are checked and type errors are
// dropped: an import only tests use has no export data here, and a rule
// reads no more of a test file than its package-level var types.
func (l *loader) tests(lp *loaded) ([]*loaded, error) {
	var tests []*loaded
	add := func(path string, names []string, with []*ast.File) error {
		if len(names) == 0 {
			return nil
		}
		files, err := l.parse(lp.list.Dir, names)
		if err != nil {
			return err
		}
		pkg, info, _ := l.typeCheck(path, append(with, files...), true)
		tests = append(tests, &loaded{rel: lp.rel, main: true, list: lp.list, pkg: pkg, files: files, info: info})
		return nil
	}
	if err := add(lp.list.ImportPath, lp.list.TestGoFiles, slices.Clone(lp.files)); err != nil {
		return nil, err
	}
	if err := add(lp.list.ImportPath+"_test", lp.list.XTestGoFiles, nil); err != nil {
		return nil, err
	}
	return tests, nil
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck checks files as the package path; a test package is checked
// for its package-level declarations only, past any error.
func (l *loader) typeCheck(path string, files []*ast.File, test bool) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
		// Types holds interface literals and tells conversions from calls.
		Types:     map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	if test {
		conf.IgnoreFuncBodies = true
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	return pkg, info, err
}

// rel returns file relative to the gated module's root.
func (l *loader) rel(file string) string {
	if rel, err := filepath.Rel(l.root, file); err == nil {
		return rel
	}
	return file
}

func (l *loader) position(pos token.Pos) string {
	p := l.fset.Position(pos)
	return fmt.Sprintf("%s:%d", l.rel(p.Filename), p.Line)
}

// interfaces indexes by method name every interface with methods that
// the loaded code declares or writes as a literal, every interface the
// standard-library packages it imports declare, and error.
func (l *loader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, lp := range l.order {
		walk(lp.pkg)
		for _, tv := range lp.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// graph is the module's package-level declarations and the names each
// declaration uses.
type graph struct {
	edges      map[types.Object][]types.Object
	roots      []types.Object
	methods    map[*types.TypeName][]*types.Func // declared methods by receiver type
	candidates []candidate
}

// A candidate is an exported declaration of a gated package.
type candidate struct {
	obj    types.Object
	recv   *types.TypeName // the receiver type, for a method
	symbol string
}

// graph builds the declaration graph; the declarations of the gated
// packages are candidates, every other declaration a root.
func (l *loader) graph(gated []*loaded) *graph {
	g := &graph{edges: map[types.Object][]types.Object{}, methods: map[*types.TypeName][]*types.Func{}}
	for _, lp := range l.order {
		isGated := slices.Contains(gated, lp)
		prefix := strings.TrimPrefix(strings.TrimPrefix(lp.rel, "internal"), "/")
		node := func(obj types.Object, decl ast.Node, root bool) {
			g.edges[obj] = append(g.edges[obj], uses(lp.info, decl)...)
			if root || !isGated {
				g.roots = append(g.roots, obj)
			}
		}
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := lp.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					node(fn, d, d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main"))
					recv := receiver(fn)
					if recv != nil {
						g.methods[recv] = append(g.methods[recv], fn)
					}
					if isGated && fn.Exported() {
						c := candidate{obj: fn, symbol: prefix + "." + fn.Name()}
						if recv != nil {
							c.recv = recv
							c.symbol = prefix + "." + recv.Name() + "." + fn.Name()
						}
						g.candidates = append(g.candidates, c)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := lp.info.Defs[s.Name]
							node(tn, s, false)
							if isGated && tn.Exported() {
								g.candidates = append(g.candidates, candidate{obj: tn, symbol: prefix + "." + tn.Name()})
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := lp.info.Defs[name]
								root := false
								if obj == nil {
									// A blank var: a compile-time assertion, or an
									// initializer kept for its side effects.
									obj = types.NewVar(name.Pos(), lp.pkg, "_", nil)
									root = d.Tok == token.VAR && callsFunction(lp.info, s)
								}
								node(obj, s, root)
								if isGated && obj.Exported() {
									g.candidates = append(g.candidates, candidate{obj: obj, symbol: prefix + "." + obj.Name()})
								}
							}
						}
					}
				}
			}
		}
	}
	return g
}

// uses returns the package-level objects and methods that identifiers
// inside decl name. A declaration that names itself gains nothing: an
// edge to itself reaches nothing new.
func uses(info *types.Info, decl ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj != nil && obj.Pkg() != nil && (obj.Parent() == obj.Pkg().Scope() || isMethod(obj)) {
			out = append(out, obj)
		}
		return true
	})
	return out
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// receiver returns the named type a method is declared on, or nil.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// callsFunction reports whether a var spec's initializer calls a
// function (a conversion does not count).
func callsFunction(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && !info.Types[c.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return calls
}

// reach walks the graph from roots. A reached type reaches each of its
// methods that an interface in ifaces declares and it implements.
func (g *graph) reach(roots []types.Object, ifaces map[string][]*types.Interface) map[types.Object]bool {
	reached := map[types.Object]bool{}
	work := slices.Clone(roots)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, g.edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range g.methods[tn] {
				if satisfies(tn, m, ifaces[m.Name()]) {
					work = append(work, m)
				}
			}
		}
	}
	return reached
}

// satisfies reports whether tn (or a pointer to it) implements one of
// ifaces, each of which declares a method named m. A generic type is
// taken to, as it cannot be checked uninstantiated.
func satisfies(tn *types.TypeName, m *types.Func, ifaces []*types.Interface) bool {
	named, ok := tn.Type().(*types.Named)
	if ok && named.TypeParams().Len() > 0 {
		return len(ifaces) > 0
	}
	for _, it := range ifaces {
		if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
			return true
		}
	}
	return false
}

// readAllow parses the allowlist, "symbol reason [note]" a line with
// blank lines and #-comments skipped, into each symbol's file:line.
// Malformed lines come back as findings.
func readAllow(path string) (map[string]string, []finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	allow := map[string]string{}
	var bad []finding
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos := fmt.Sprintf("%s:%d", path, n)
		fields := strings.Fields(line)
		sym := fields[0]
		switch {
		case len(fields) < 2 || !validReason(fields[1]):
			bad = append(bad, finding{Pos: pos, What: sym + " needs one reason: interface, test-seam or planned:<item>"})
		case fields[1] == "test-seam" && len(fields) < 3:
			bad = append(bad, finding{Pos: pos, What: sym + " is a test-seam entry that names no test"})
		default:
			if _, dup := allow[sym]; dup {
				bad = append(bad, finding{Pos: pos, What: sym + " is allowlisted twice"})
			}
			allow[sym] = pos
		}
	}
	return allow, bad, sc.Err()
}

func validReason(r string) bool {
	switch r {
	case "interface", "test-seam":
		return true
	}
	item, ok := strings.CutPrefix(r, "planned:")
	return ok && item != ""
}
