package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ulixes"
	"ulixes/internal/guard"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/view"
)

// Fixed sizes and client counts of every workload (see README.md).
const (
	siteCourses = 400
	siteProfs   = 120
	siteDepts   = 8

	clients     = 2                    // closed-loop callers; nproc of the sandbox
	rttLatency  = 2 * time.Millisecond // rtt_navigate: per GET and HEAD
	rttWorkers  = 8                    // rtt_navigate: concurrent downloads per query
	mutateRate  = 20                   // mutate_mix: POST /mutate per second
	warmupShare = 0.1                  // of the measured time, run first and discarded
	coldPerSec  = 4                    // cold_shapes: shapes per second of --seconds
)

// libEnv is the in-process library path: the generated university behind the
// site-health guard, as webq and ulixesd assemble it.
type libEnv struct {
	univ   *sitegen.University
	mem    *site.MemSite
	server site.Server // what the system fetches through
	sys    *ulixes.System
	views  *ulixes.Views
}

// newLibEnv generates the site ulixesd generates for siteFlags (seed 0),
// optionally slows it down and wraps it, and opens a system over it, which
// crawls the site for statistics.
func newLibEnv(latency time.Duration, wrap func(*site.MemSite) site.Server) (*libEnv, error) {
	u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: siteCourses, Profs: siteProfs, Depts: siteDepts})
	if err != nil {
		return nil, err
	}
	mem, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		return nil, err
	}
	mem.SetLatency(latency)
	var inner site.Server = mem
	if wrap != nil {
		inner = wrap(mem)
	}
	env := &libEnv{univ: u, mem: mem, server: guard.New(inner, guard.Config{}), views: view.UniversityView(u.Scheme)}
	env.sys, err = ulixes.Open(env.server, u.Scheme, env.views)
	if err != nil {
		return nil, err
	}
	return env, nil
}

// newOracle opens the reference evaluator: sequential navigation, one
// download at a time, no page store and no plan cache. A narrow beam keeps
// its planning cheap; every candidate plan is equivalent to the query, so the
// answer does not depend on which one the beam keeps.
func newOracle() (*libEnv, error) {
	env, err := newLibEnv(0, nil)
	if err != nil {
		return nil, err
	}
	env.sys.SetOptions(ulixes.Options{BeamWidth: 4})
	env.sys.SetExec(ulixes.ExecOptions{Workers: 1, Pipelined: false})
	return env, nil
}

// answerHash is the oracle's row-set hash of a query on the site's current
// state.
func (e *libEnv) answerHash(text string) (string, error) {
	ans, err := e.sys.Query(text)
	if err != nil {
		return "", fmt.Errorf("oracle: %s: %w", text, err)
	}
	return hashRelation(ans.Result), nil
}

// relationRows renders a relation the way ulixesd's /query does.
func relationRows(rel *ulixes.Relation) (cols []string, rows [][]string) {
	cols = rel.Names()
	for _, t := range rel.Sorted() {
		row := make([]string, t.Arity())
		for i := range row {
			row[i] = t.At(i).String()
		}
		rows = append(rows, row)
	}
	return cols, rows
}

func hashRelation(rel *ulixes.Relation) string { return hashRows(relationRows(rel)) }

// hashRows hashes a row set: the column names, then the rows in sorted order.
func hashRows(cols []string, rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(strings.Join(cols, "\x1f")))
	for _, l := range lines {
		h.Write([]byte{'\x1e'})
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// golden maps a query text to the hash of its answer on the unmutated site.
type golden map[string]string

// goldenPath names the golden file of a workload. The three workloads that
// run the E4 suite share one file.
func goldenPath(root, workload string) string {
	file := "warm_repeat.json"
	if workload == "cold_shapes" {
		file = "cold_shapes.json"
	}
	return filepath.Join(root, "benchmark", "golden", file)
}

func loadGolden(root, workload string) (golden, error) {
	b, err := os.ReadFile(goldenPath(root, workload))
	if err != nil {
		return nil, fmt.Errorf("golden answers: %w (make them with -update-golden)", err)
	}
	g := make(golden)
	return g, json.Unmarshal(b, &g)
}

// updateGolden recomputes both golden files from the oracle.
func updateGolden(root string) error {
	oracle, err := newOracle()
	if err != nil {
		return err
	}
	// The oracle plans each of the few hundred shapes once.
	oracle.sys.EnablePlanCache(ulixes.PlanCacheConfig{MaxEntries: 4096})
	for workload, queries := range map[string][]query{
		"warm_repeat": allSuiteQueries(),
		"cold_shapes": allColdQueries(),
	} {
		g := make(golden, len(queries))
		for _, q := range queries {
			if g[q.Text], err = oracle.answerHash(q.Text); err != nil {
				return err
			}
		}
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		path := goldenPath(root, workload)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d answers)\n", path, len(g))
	}
	return nil
}
