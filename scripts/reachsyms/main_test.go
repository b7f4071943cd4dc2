package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixture is a module that mirrors the gated module's layout: internal/lib
// holds one symbol per symbol-reach case, and every other package holds
// the forms one rule fires on and the forms no rule may fire on.
var fixture = filepath.Join("testdata", "mod")

// TestModuleRules runs every rule over this module with the real
// allowlist, so go test ./... enforces the table.
func TestModuleRules(t *testing.T) {
	root := filepath.Join("..", "..")
	l, err := load(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := l.check(rules("allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// fixtureLoader loads the fixture once for every test that checks it.
var fixtureLoader = sync.OnceValues(func() (*loader, error) { return load(fixture) })

func checkFixture(t *testing.T, r []rule) ([]finding, error) {
	t.Helper()
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l.check(r)
}

func checkFixtureRules(t *testing.T, allowFile string) []finding {
	t.Helper()
	findings, err := checkFixture(t, rules(allowFile))
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// symbols returns the symbol-reach findings' messages by symbol.
func symbols(findings []finding) map[string]string {
	got := map[string]string{}
	for _, f := range findings {
		if f.Rule == "symbol-reach" {
			sym, msg, _ := strings.Cut(f.What, " ")
			got[sym] += msg + "; "
		}
	}
	return got
}

func TestFixtureSymbols(t *testing.T) {
	got := symbols(checkFixtureRules(t, filepath.Join(fixture, "allow.txt")))
	for _, c := range []struct {
		name, symbol string
		flagged      bool
	}{
		{"unreferenced exported func", "lib.Dead", true},
		{"func referenced only by a _test.go file", "lib.TestOnly", true},
		{"reference from its own declaration only", "lib.Recursive", true},
		{"method no code or interface reaches", "lib.Name.Loud", true},
		{"same-package non-test reference", "lib.Helper", false},
		{"String reached through fmt.Stringer", "lib.Name.String", false},
		{"method satisfying a module-declared interface", "lib.Square.Area", false},
		{"allowlisted symbol", "lib.Allowed", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, flagged := got[c.symbol]; flagged != c.flagged {
				t.Errorf("%s flagged = %v, want %v (findings %v)", c.symbol, flagged, c.flagged, got)
			}
		})
	}
	if len(got) != 4 {
		t.Errorf("findings = %v, want exactly the four flagged symbols", got)
	}
}

func TestStaleAllowlistFails(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	lines := []string{
		"lib.Allowed test-seam TestAllowed in another package reads it",
		"lib.Entry interface main calls it, so the entry is stale",
		"lib.Gone planned:1 the symbol no longer exists",
		"lib.Dead because it is not one of the three reasons",
		"lib.TestOnly test-seam",
	}
	if err := os.WriteFile(allow, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := symbols(checkFixtureRules(t, allow))
	for symbol, want := range map[string]string{
		"lib.Entry":    "reached",
		"lib.Gone":     "names no exported symbol",
		"lib.Dead":     "needs one reason",
		"lib.TestOnly": "names no test",
	} {
		if !strings.Contains(got[symbol], want) {
			t.Errorf("%s: finding %q, want one containing %q", symbol, got[symbol], want)
		}
	}
}

// TestFixtureRules holds every rule of the table to exactly the findings
// it makes on the fixture, by file and what fired. A rule deleted from
// the table, or one whose scope no longer reaches its fixture, fails.
// The forms the text gates missed are here: a var block, a _test.go
// cache, a method value, an aliased os, a struct field, a package only an
// example reaches, an import two levels down and an exit in a package
// below internal/cli, an orphaned test reference and a Reference method
// in non-test code. So are the ones that must not fire: a comment
// naming WindowCounter (censor.go), a string "os.Exit(" (cmd/tool), an
// address-keyed map in a _test.go file, maps holding addresses or
// identity hashes as values, internal/cache declaring WindowCounter, a
// function-local sync.Map, the allowed atomic pointers, the exits in
// internal/cli and internal/faults, the WaitGroups in internal/pool and
// in a _test.go file, the tools that reach internal/cli but no
// campaign, the study that studycli builds and runs outside cmd/, a
// reference reached only through a helper, and a reference type reached
// through its constructor whose methods reach another reference.
func TestFixtureRules(t *testing.T) {
	want := map[string][]string{
		"no-global-network-cache": {
			"internal/censor/censor.go: var seen sync.Map",
			"internal/censor/censor_test.go: var captured *sync.Map",
			"internal/distrib/distrib_test.go: var byNetwork map[*sim.Network]int",
		},
		"one-publication-pointer": {
			"internal/service/service.go: atomic.Pointer[int]",
			"internal/service/service.go: atomic.Value",
		},
		"censor-keeps-address-sets": {"internal/censor/censor.go: .ObserveDay"},
		"one-blacklist-build":       {"internal/censor/censor.go: NewWindowCounter"},
		"one-union-path":            {"examples/fleet/main.go: ObserveGrid"},
		"one-arms-race-row":         {"internal/core/trust.go: advanceTo"},
		"one-pool":                  {"internal/measure/measure.go: sync.WaitGroup"},
		"below-the-campaign":        {"internal/distrib/distrib.go: internal/distrib imports internal/measure"},
		"one-reachability-rule":     {"internal/distrib/distrib.go: .Introducers"},
		"one-address-table":         {"internal/measure/intern.go: map[netip.Addr]uint32"},
		"one-peer-index":            {"internal/measure/tracks.go: map[netdb.Hash]int32"},
		"one-exit-site": {
			"cmd/tool/main.go: log.Fatal",
			"internal/cli/studycli/studycli.go: os.Exit",
			"internal/sim/sim.go: os.Exit",
		},
		"one-study-run": {
			"cmd/i2pcensor/main.go: .NewStudy",
			"cmd/i2pcensor/main.go: .RunAll",
		},
		"tools-skip-the-study": {
			"cmd/i2pdistribd/main.go: cmd/i2pdistribd imports internal/distrib, which imports internal/measure",
		},
		"observers-memoize-nothing": {
			"internal/sim/sim.go: internal/sim imports internal/draw, which imports internal/cache",
		},
		"package-reach": {"internal/orphan/orphan.go: internal/orphan is imported by no binary, script or the root package"},
		"references-held": {
			"internal/lib/lib.go: Square.Reference is a reference outside a _test.go file",
			"internal/lib/lib_test.go: referenceOrphan is reached from no Test or Fuzz function of its package",
		},
		"symbol-reach": {
			"internal/lib/lib.go: lib.Dead is reached by no non-test code",
			"internal/lib/lib.go: lib.Name.Loud is reached by no non-test code",
			"internal/lib/lib.go: lib.Recursive is reached by no non-test code",
			"internal/lib/lib.go: lib.TestOnly is reached by no non-test code",
		},
	}
	got := map[string][]string{}
	for _, f := range checkFixtureRules(t, filepath.Join(fixture, "allow.txt")) {
		file, _, _ := strings.Cut(f.Pos, ":")
		got[f.Rule] = append(got[f.Rule], file+": "+f.What)
	}
	table := rules("")
	if len(table) != len(want) {
		t.Errorf("%d rules, want %d", len(table), len(want))
	}
	for _, r := range table {
		slices.Sort(got[r.Name])
		if !slices.Equal(got[r.Name], want[r.Name]) {
			t.Errorf("%s fired on\n\t%s\nwant\n\t%s", r.Name, strings.Join(got[r.Name], "\n\t"), strings.Join(want[r.Name], "\n\t"))
		}
	}
}

// TestScopeMatchesNothing checks that a rule whose scope or import target
// names no package fails the check instead of passing silently.
func TestScopeMatchesNothing(t *testing.T) {
	for _, r := range []rule{
		{Name: "renamed-scope", Scope: scope{In: []string{"internal/censr"}}, check: inFiles(identContaining("WindowCounter"))},
		{Name: "renamed-target", Scope: scope{In: []string{"internal/sim"}}, check: importsNone("internal/cach")},
	} {
		_, err := checkFixture(t, []rule{r})
		if err == nil || !strings.Contains(err.Error(), r.Name) || !strings.Contains(err.Error(), "matches no package") {
			t.Errorf("%s: err = %v, want the rule named and its empty match", r.Name, err)
		}
	}
}
