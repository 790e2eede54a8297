package lint_test

import (
	"testing"

	"ulixes/internal/lint"
	"ulixes/internal/lint/linttest"
)

func TestFetchGate(t *testing.T)   { linttest.Run(t, lint.FetchGate, "fetchgate") }
func TestNoWallClock(t *testing.T) { linttest.Run(t, lint.NoWallClock, "nowallclock") }
func TestChanHygiene(t *testing.T) { linttest.Run(t, lint.ChanHygiene, "chanhygiene") }
func TestNoPrintln(t *testing.T)   { linttest.Run(t, lint.NoPrintln, "noprintln") }
func TestNoCtxBg(t *testing.T)     { linttest.Run(t, lint.NoCtxBackground, "noctxbg") }
func TestMutexGuard(t *testing.T)  { linttest.Run(t, lint.MutexGuard, "mutexguard") }

// TestRepoClean asserts the invariant the PR establishes: the repo's own
// packages produce no findings (intentional bypasses carry //lint:allow).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			t.Errorf("%s: load error: %v", p.PkgPath, e)
		}
	}
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
}
