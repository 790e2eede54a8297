package lint_test

import (
	"go/types"
	"testing"

	"ulixes/internal/lint"
)

// escClassOf finds a variable by name among the escape results.
func escClassOf(t *testing.T, pkg *lint.Package, esc map[*types.Var]*lint.EscapeInfo, name string) (lint.EscapeClass, bool) {
	t.Helper()
	for v, info := range esc {
		if v.Name() == name {
			return info.Class, true
		}
	}
	return 0, false
}

func escapesOf(t *testing.T, name string) (*lint.Package, map[*types.Var]*lint.EscapeInfo) {
	t.Helper()
	pkg, fn := loadDataflowFixture(t)
	fd := fn(name)
	return pkg, lint.Escapes(pkg, fd.Type, fd.Body)
}

func TestEscapeLocal(t *testing.T) {
	pkg, esc := escapesOf(t, "escLocal")
	// Plain locals never raised above local: either untracked or EscLocal.
	if c, ok := escClassOf(t, pkg, esc, "x"); ok && c != lint.EscLocal {
		t.Fatalf("x classified %v, want local", c)
	}
}

func TestEscapeReturned(t *testing.T) {
	pkg, esc := escapesOf(t, "escReturned")
	c, ok := escClassOf(t, pkg, esc, "p")
	if !ok || c != lint.EscEscaped {
		t.Fatalf("returned pointer p classified %v (tracked=%v), want escaped", c, ok)
	}
}

func TestEscapeStoredIntoLocalStructure(t *testing.T) {
	pkg, esc := escapesOf(t, "escStoredLocal")
	c, ok := escClassOf(t, pkg, esc, "x")
	if !ok || c != lint.EscStored {
		t.Fatalf("x stored into local box classified %v (tracked=%v), want stored", c, ok)
	}
}

func TestEscapeStoredIntoParam(t *testing.T) {
	pkg, esc := escapesOf(t, "escStoredIntoParam")
	c, ok := escClassOf(t, pkg, esc, "x")
	if !ok || c != lint.EscEscaped {
		t.Fatalf("x stored into param structure classified %v (tracked=%v), want escaped", c, ok)
	}
}

func TestEscapeGoroutineCapture(t *testing.T) {
	pkg, esc := escapesOf(t, "escGoroutine")
	c, ok := escClassOf(t, pkg, esc, "x")
	if !ok || c != lint.EscEscaped {
		t.Fatalf("goroutine-captured x classified %v (tracked=%v), want escaped", c, ok)
	}
}

func TestEscapeLocalClosureKeepsCaptureLocal(t *testing.T) {
	pkg, esc := escapesOf(t, "escLocalClosure")
	if c, ok := escClassOf(t, pkg, esc, "x"); ok && c != lint.EscLocal {
		t.Fatalf("locally-called closure capture x classified %v, want local", c)
	}
}
