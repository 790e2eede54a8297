// Command discover crawls a generated site and performs the reverse-
// engineering step the paper assumes (§3 footnote 2): it verifies the
// constraints the scheme declares against the actual pages and mines the
// link and inclusion constraints that hold extensionally, flagging the
// undeclared ones as proposals for the site designer.
//
// Usage:
//
//	discover [-site university|bibliography] [-support N] [-undeclared]
package main

import (
	"flag"
	"fmt"
	"os"

	"ulixes/internal/adm"
	"ulixes/internal/discover"
	"ulixes/internal/pagecache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/stats"
)

func main() {
	siteName := flag.String("site", "university", "site to analyze: university or bibliography")
	support := flag.Int("support", 2, "minimum witnessing occurrences for a mined constraint")
	undeclaredOnly := flag.Bool("undeclared", false, "show only constraints not already declared")
	flag.Parse()

	inst, err := crawl(*siteName)
	if err != nil {
		fail(err)
	}

	fmt.Println("-- verification of declared constraints --")
	checks, err := discover.Verify(inst)
	if err != nil {
		fail(err)
	}
	for _, v := range checks {
		status := "holds"
		if !v.Holds {
			status = fmt.Sprintf("VIOLATED ×%d (%s)", v.Violations, v.Example)
		}
		fmt.Printf("  [%s] %-70s %s\n", v.Kind, v.Constraint, status)
	}

	fmt.Println("\n-- mined constraints --")
	proposals, err := discover.Mine(inst, *support)
	if err != nil {
		fail(err)
	}
	for _, p := range proposals {
		if *undeclaredOnly && p.Declared {
			continue
		}
		fmt.Println("  " + p.String())
	}

	// Emit the undeclared proposals in the scheme language, ready to paste
	// into a scheme file.
	fmt.Println("\n-- scheme-language declarations for undeclared proposals --")
	for _, p := range proposals {
		if p.Declared {
			continue
		}
		if p.Link != nil {
			fmt.Printf("link-constraint via %s: %s = %s\n", p.Link.Link, p.Link.SrcAttr, p.Link.TgtAttr)
		} else {
			fmt.Printf("inclusion %s <= %s\n", p.Inclusion.Sub, p.Inclusion.Super)
		}
	}
}

func crawl(name string) (*adm.Instance, error) {
	var ms *site.MemSite
	var ws *adm.Scheme
	switch name {
	case "university":
		u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
		if err != nil {
			return nil, err
		}
		ws = u.Scheme
		if ms, err = site.NewMemSite(u.Instance, nil); err != nil {
			return nil, err
		}
	case "bibliography":
		b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{Authors: 200, Confs: 8, DBConfs: 3, Years: 4, PapersPerEdition: 5})
		if err != nil {
			return nil, err
		}
		ws = b.Scheme
		if ms, err = site.NewMemSite(b.Instance, nil); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown site %q", name)
	}
	inst, _, err := stats.CrawlWithSizes(pagecache.New(ms, ws, pagecache.Config{DefaultTTL: pagecache.Forever}), ws)
	return inst, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "discover:", err)
	os.Exit(1)
}
