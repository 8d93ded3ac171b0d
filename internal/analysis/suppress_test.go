package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"uopsinfo/internal/analysis"
)

// toylint reports every call to a function literally named bad, giving the
// suppression tests a finding they can place on any line.
var toylint = &analysis.Analyzer{
	Name: "toylint",
	Doc:  "flag calls to bad (test analyzer)",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
					pass.Reportf(call.Pos(), "call to bad")
				}
				return true
			})
		}
		return nil
	},
}

const suppressSrc = `package fixture

func bad() {}

func unsuppressed() {
	bad()
}

func trailing() {
	bad() //uopslint:ignore toylint deliberate test call
}

func standalone() {
	//uopslint:ignore toylint deliberate test call
	bad()
}

func standaloneCoversOnlyNextLine() {
	//uopslint:ignore toylint deliberate test call
	bad()
	bad()
}

func wrongName() {
	bad() //uopslint:ignore otherlint not an analyzer of this run
}

func missingReason() {
	bad() //uopslint:ignore toylint
}

func missingEverything() {
	bad() //uopslint:ignore
}

func noSpace() {
	bad()//uopslint:ignore toylint deliberate test call
	bad()
}
`

// checkFixture type-checks suppressSrc in memory and runs it through the
// full Check path (directive validation plus suppression filtering).
func checkFixture(t *testing.T) []analysis.Finding {
	t.Helper()
	fset := token.NewFileSet()
	const name = "fixture.go"
	file, err := parser.ParseFile(fset, name, suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{}).Check("fixture", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	p := &analysis.Package{
		Fset:       fset,
		Files:      []*ast.File{file},
		Pkg:        pkg,
		Info:       info,
		ImportPath: "fixture",
		Sources:    map[string][]byte{name: []byte(suppressSrc)},
	}
	findings, err := analysis.Check([]*analysis.Package{p}, []*analysis.Analyzer{toylint}, []string{toylint.Name})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return findings
}

// fixtureLine returns the 1-based line of the n-th occurrence of marker in
// the fixture source, so the expectations survive fixture edits.
func fixtureLine(t *testing.T, marker string, n int) int {
	t.Helper()
	line := 0
	for i, l := range strings.Split(suppressSrc, "\n") {
		if strings.Contains(l, marker) {
			if n == 0 {
				line = i + 1
				break
			}
			n--
		}
	}
	if line == 0 {
		t.Fatalf("marker %q (occurrence %d) not in fixture", marker, n)
	}
	return line
}

func TestSuppression(t *testing.T) {
	findings := checkFixture(t)

	type fkey struct {
		analyzer string
		line     int
	}
	got := make(map[fkey]string)
	for _, f := range findings {
		got[fkey{f.Analyzer, f.Pos.Line}] = f.Message
	}

	unsup := fixtureLine(t, "func unsuppressed", 0) + 1
	secondBad := fixtureLine(t, "func standaloneCoversOnlyNextLine", 0) + 3
	wrongName := fixtureLine(t, "otherlint", 0)

	// The one genuinely unsuppressed call is a finding.
	if _, ok := got[fkey{"toylint", unsup}]; !ok {
		t.Errorf("missing toylint finding at line %d (unsuppressed call)", unsup)
	}
	// A standalone directive covers only the next line.
	if _, ok := got[fkey{"toylint", secondBad}]; !ok {
		t.Errorf("missing toylint finding at line %d (second call after standalone directive)", secondBad)
	}
	// Malformed directives never suppress: the underlying finding survives
	// alongside the malformed-directive finding.
	for _, line := range []int{wrongName, fixtureLine(t, "func missingReason", 0) + 1, fixtureLine(t, "func missingEverything", 0) + 1} {
		if _, ok := got[fkey{"toylint", line}]; !ok {
			t.Errorf("missing toylint finding at line %d (malformed directive must not suppress)", line)
		}
		msg, ok := got[fkey{analysis.MalformedIgnoreAnalyzer, line}]
		if !ok {
			t.Errorf("missing malformed-directive finding at line %d", line)
			continue
		}
		if !strings.HasPrefix(msg, "malformed //uopslint:ignore directive: ") {
			t.Errorf("line %d: malformed-directive message = %q", line, msg)
		}
	}
	// The specific malformations carry specific explanations.
	if msg := got[fkey{analysis.MalformedIgnoreAnalyzer, wrongName}]; !strings.Contains(msg, `unknown analyzer "otherlint"`) {
		t.Errorf("wrong-name directive message = %q, want unknown-analyzer explanation", msg)
	}
	mr := fixtureLine(t, "func missingReason", 0) + 1
	if msg := got[fkey{analysis.MalformedIgnoreAnalyzer, mr}]; !strings.Contains(msg, "missing reason") {
		t.Errorf("missing-reason directive message = %q, want missing-reason explanation", msg)
	}
	me := fixtureLine(t, "func missingEverything", 0) + 1
	if msg := got[fkey{analysis.MalformedIgnoreAnalyzer, me}]; !strings.Contains(msg, "missing analyzer name and reason") {
		t.Errorf("empty directive message = %q, want missing-name-and-reason explanation", msg)
	}

	// Valid suppressions leave no findings behind: trailing on its own
	// line, standalone covering the next line, and the first call of the
	// two-call function. The no-space trailing case is pinned by
	// TestOwnLineNoSpaceBeforeComment.
	for _, line := range []int{
		fixtureLine(t, "func trailing", 0) + 1,
		fixtureLine(t, "func standalone()", 0) + 2,
		fixtureLine(t, "func standaloneCoversOnlyNextLine", 0) + 2,
	} {
		if _, ok := got[fkey{"toylint", line}]; ok {
			t.Errorf("toylint finding at line %d should have been suppressed", line)
		}
	}

	// Exactly the expected number of findings: 6 toylint + 3 malformed.
	if len(findings) != 9 {
		t.Errorf("got %d findings, want 9:", len(findings))
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
}

// TestOwnLineNoSpaceBeforeComment pins the trailing-directive case where the
// comment directly abuts the code with no separating space (the noSpace
// fixture): the directive must parse as trailing, covering its own line and
// leaving the next call reported. Misparsed as standalone, it would flip both.
func TestOwnLineNoSpaceBeforeComment(t *testing.T) {
	toy := make(map[int]bool)
	for _, f := range checkFixture(t) {
		if f.Analyzer == "toylint" {
			toy[f.Pos.Line] = true
		}
	}
	noSpace := fixtureLine(t, "func noSpace", 0)
	if toy[noSpace+1] {
		t.Errorf("toylint finding at line %d: a directive abutting the call must suppress it", noSpace+1)
	}
	if !toy[noSpace+2] {
		t.Errorf("missing toylint finding at line %d (call after a no-space trailing directive)", noSpace+2)
	}
}
