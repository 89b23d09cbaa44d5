// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// on the repo's own framework. A fixture line carrying
//
//	x := bad() // want `regexp`
//
// must produce exactly one diagnostic on that line whose message
// matches the back-quoted regular expression (several back-quoted
// expectations may follow one want); a diagnostic on a line with no
// matching expectation, or an expectation no diagnostic matched, fails
// the test. Fixture trees live under testdata so real reprolint runs
// (which skip testdata directories) never see their deliberate
// violations.
package analysistest

import (
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads testdata/src, analyzes the named fixture packages (import
// paths relative to src, e.g. "a"), and reports mismatches through t.
// Interprocedural analyzers see the whole fixture tree as their module,
// exactly as reprolint hands them the whole loaded tree, so a flow that
// starts in a helper package is visible in the package under test.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdata, a, false, pkgPaths)
}

// RunWithSuggestedFixes is Run plus golden verification of the
// analyzer's suggested fixes: after the // want expectations are
// checked, every fix the analyzer emitted is applied with
// analysis.ApplyFixes and each rewritten file must be byte-identical to
// its committed <file>.golden sibling. A fixture package with fixes and
// no golden, or a golden that no longer matches, fails the test — the
// same shape as the repo's BENCH golden gating, applied to the fixer.
func RunWithSuggestedFixes(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdata, a, true, pkgPaths)
}

func run(t *testing.T, testdata string, a *analysis.Analyzer, checkFixes bool, pkgPaths []string) {
	t.Helper()
	pkgs, err := analysis.NewLoader(testdata+"/src", "").Load()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	for _, want := range pkgPaths {
		var pkg *analysis.Package
		for _, p := range pkgs {
			if p.PkgPath == want {
				pkg = p
				break
			}
		}
		if pkg == nil {
			t.Errorf("fixture package %q not found under %s/src", want, testdata)
			continue
		}
		findings := runPackage(t, a, pkgs, pkg)
		if checkFixes {
			verifyFixes(t, pkg.PkgPath, findings)
		}
	}
}

// verifyFixes applies the findings' fixes and compares each rewritten
// file against its committed .golden sibling.
func verifyFixes(t *testing.T, pkgPath string, findings []analysis.Finding) {
	t.Helper()
	fixed, err := analysis.ApplyFixes(findings)
	if err != nil {
		t.Errorf("%s: applying suggested fixes: %v", pkgPath, err)
		return
	}
	if len(fixed) == 0 {
		t.Errorf("%s: analyzer emitted no suggested fixes to verify", pkgPath)
		return
	}
	for _, file := range sortedKeys(fixed) {
		golden := file + ".golden"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: fixes rewrite %s but no golden is committed: %v", pkgPath, file, err)
			continue
		}
		if got := fixed[file]; !bytes.Equal(got, want) {
			t.Errorf("%s: applying fixes to %s does not reproduce %s:\n--- got ---\n%s\n--- want ---\n%s",
				pkgPath, file, golden, got, want)
		}
	}
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func runPackage(t *testing.T, a *analysis.Analyzer, all []*analysis.Package, pkg *analysis.Package) []analysis.Finding {
	t.Helper()
	expectations, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("%s: %v", pkg.PkgPath, err)
	}
	findings, err := analysis.Run(all, []*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkg.PkgPath, err)
	}
	for _, f := range findings {
		if !matchExpectation(expectations, f) {
			t.Errorf("%s: unexpected diagnostic: %s", pkg.PkgPath, f)
		}
	}
	for _, e := range expectations {
		if !e.matched {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", pkg.PkgPath, e.file, e.line, e.re)
		}
	}
	return findings
}

func matchExpectation(expectations []*expectation, f analysis.Finding) bool {
	for _, e := range expectations {
		if !e.matched && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile("`[^`]*`")

// parseWants extracts // want expectations from every comment in the
// package. Each back-quoted token after "want" is one expected
// diagnostic on the comment's line.
func parseWants(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				exps, err := parseComment(pkg, c)
				if err != nil {
					return nil, err
				}
				out = append(out, exps...)
			}
		}
	}
	return out, nil
}

func parseComment(pkg *analysis.Package, c *ast.Comment) ([]*expectation, error) {
	// Only comments of the exact form `// want ...` are expectations;
	// prose that merely contains the word "want" is not.
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(text, "want ") {
		return nil, nil
	}
	rest := text[len("want "):]
	tokens := wantRE.FindAllString(rest, -1)
	pos := pkg.Fset.Position(c.Pos())
	if len(tokens) == 0 {
		return nil, fmt.Errorf("%s: want comment with no back-quoted pattern: %s", pos, text)
	}
	var out []*expectation
	for _, tok := range tokens {
		re, err := regexp.Compile(tok[1 : len(tok)-1])
		if err != nil {
			return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, tok, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
	}
	return out, nil
}
