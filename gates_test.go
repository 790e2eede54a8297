package ulixes_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// schedulesList is the one list of packages `make schedules` and
// `make schedules-race` run many times at several GOMAXPROCS.
const schedulesList = "scripts/schedules.txt"

// TestSchedulesList keeps the schedules gate complete: every non-test
// package of this module outside internal/exp that starts a goroutine or
// declares a sync.Mutex or sync.RWMutex must be listed, and every listed
// directory must exist. sync.Pool or sync.Map alone does not put a package
// on the list.
func TestSchedulesList(t *testing.T) {
	f, err := os.Open(schedulesList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dir := filepath.Clean(line)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("%s lists %s, which is not a directory", schedulesList, line)
		}
		listed[dir] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	concurrent := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// testdata, dot directories, other modules (benchmark/) and the
			// experiments, which run once per table, are not gated.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") ||
				path == filepath.Join("internal", "exp") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if startsGoroutineOrLocks(t, path) {
			concurrent[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for dir := range concurrent {
		if !listed[dir] {
			missing = append(missing, "./"+filepath.ToSlash(dir)+"/")
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("%s starts goroutines or declares a mutex but is not in %s", dir, schedulesList)
	}
}

// startsGoroutineOrLocks reports whether a Go file has a go statement or
// names sync.Mutex or sync.RWMutex.
func startsGoroutineOrLocks(t *testing.T, path string) bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			found = true
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" &&
				(n.Sel.Name == "Mutex" || n.Sel.Name == "RWMutex") {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestBenchmarkModuleVets builds and vets benchmark/, a module of its own
// that imports about a dozen internal packages, so that an internal API
// change that breaks it fails here rather than when the benchmark runs. It
// uses the environment benchmark/run.sh builds with.
func TestBenchmarkModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
