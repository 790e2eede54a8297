// Package lint is a small static-analysis framework for the engine's own
// invariants, in the spirit of golang.org/x/tools/go/analysis but built only
// on the standard library's go/ast and go/types (the repository carries no
// module dependencies). It ships ten analyzers:
//
//   - fetchgate: every page access must flow through the one counted access
//     path (pagecache.Session over site.Transport), so ExecStats page counts
//     stay sound;
//   - nowallclock: no ambient wall-clock reads in the cost-measured packages;
//   - chanhygiene: no unbounded goroutine fan-out or unguarded channel sends
//     in the concurrent evaluation packages;
//   - noprintln: no writes to the process's stdout/stderr from library
//     packages;
//   - noctxbg: no context.Background/TODO in request-path packages, so
//     request deadlines and cancellation propagate to every page access;
//   - poolreset: sync.Pool users on the request path must reset pooled
//     objects before Put, so no request's data leaks into the next;
//   - viewescape: zero-copy views (lexer token attrs, pooled buffers,
//     TrustedTuple shared slices) must not outlive their generation —
//     flow-checked against the next Next/Put call, stores, and returns;
//   - lostcancel: every context cancel function on the request path is
//     called (or deferred, or handed off) on all paths to return;
//   - mutexguard: fields annotated "// guarded by mu" are only accessed
//     with the mutex held, flow-checked through Lock/Unlock/defer paths;
//   - statsexhaustive: Add/Merge methods on Stats/Counters structs mention
//     every field, so new counters can't be silently dropped from merges.
//
// The last four are flow-sensitive: they run on a per-function basic-block
// CFG (cfg.go) with a forward dataflow solver, def-use chains, and an
// escape lattice (dataflow.go) shared by all analyzers.
//
// Intentional exemptions are documented in the source with a
//
//	//lint:allow <analyzer> [reason]
//
// comment on the offending line or the line directly above it; the driver
// suppresses matching diagnostics, so every exemption is visible and
// greppable at the call site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring the x/tools go/analysis shape.
type Analyzer struct {
	// Name identifies the analyzer in findings and //lint:allow comments.
	Name string
	// Doc is the one-paragraph description shown by ulixes-vet -list.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass)
	// IncludeTests makes the analyzer visit _test.go files too. Analyzers
	// protecting runtime invariants of library code leave it false.
	IncludeTests bool
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Files are the syntax trees the analyzer should visit (test files
	// already filtered out unless the analyzer opted in).
	Files []*ast.File

	findings *[]Finding
}

// Reportf records a diagnostic at a position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyzers returns the full analyzer suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FetchGate, NoWallClock, ChanHygiene, NoPrintln, NoCtxBackground,
		PoolReset, ViewEscape, LostCancel, MutexGuard, StatsExhaustive,
	}
}

// Run applies the analyzers to the packages and returns the surviving
// findings, sorted by position. Findings on lines carrying (or directly
// below) a matching //lint:allow comment are suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		for _, a := range analyzers {
			files := pkg.Files
			if !a.IncludeTests {
				files = nil
				for _, f := range pkg.Files {
					if !pkg.TestFiles[f] {
						files = append(files, f)
					}
				}
			}
			var found []Finding
			pass := &Pass{Analyzer: a, Pkg: pkg, Files: files, findings: &found}
			a.Run(pass)
			for _, f := range found {
				if !allows.allowed(a.Name, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
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

// allowRe matches the exemption directive: "lint:allow name1,name2 reason".
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_,-]+)`)

// allowSet maps file → line → analyzer names exempted at that line.
type allowSet map[string]map[int][]string

func (s allowSet) allowed(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	// A directive suppresses findings on its own line and on the line
	// directly below it (comment-above style).
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// collectAllows indexes every //lint:allow directive of a package.
func collectAllows(pkg *Package) allowSet {
	out := make(allowSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					out[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					lines[pos.Line] = append(lines[pos.Line], strings.TrimSpace(name))
				}
			}
		}
	}
	return out
}

// fixturePackage reports whether a package path is a linttest fixture.
// Analyzers scoped to specific engine packages also fire inside fixtures so
// their behavior stays testable.
func fixturePackage(path string) bool {
	return strings.Contains(path, "internal/lint/testdata/")
}

// pathIsOneOf reports whether the package path matches one of the listed
// import paths exactly.
func pathIsOneOf(path string, list ...string) bool {
	for _, p := range list {
		if path == p {
			return true
		}
	}
	return false
}
