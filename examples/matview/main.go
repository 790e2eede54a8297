// Matview: §8 of the paper. Materialize the university site locally, run a
// query (only light connections — no downloads), edit pages on the site,
// run the query again (downloads only the changed pages, maintaining the
// view as a side effect), delete a page and watch CheckMissing defer its
// cleanup to the off-line pass.
//
//	go run ./examples/matview
package main

import (
	"context"
	"fmt"
	"log"

	"ulixes"
	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/view"
)

func main() {
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		log.Fatal(err)
	}
	server, err := site.NewMemSite(u.Instance, nil)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ulixes.Open(server, u.Scheme, view.UniversityView(u.Scheme))
	if err != nil {
		log.Fatal(err)
	}

	// Materialize: one full crawl, then queries run locally.
	mv, err := sys.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d pages\n\n", mv.Store().Len())

	const query = "SELECT p.PName, p.Rank FROM Professor p WHERE p.Rank = 'Full'"
	run := func(label string) *ulixes.Answer {
		ans, err := mv.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %2d rows, %2d light connections, %2d downloads, %d updates applied\n",
			label, ans.Result.Len(), ans.Exec.LightConnections, ans.Exec.Pages, ans.Exec.Updates)
		return ans
	}

	run("fresh view:")

	// The site manager promotes a professor without telling anyone (§1:
	// "the site manager inserts, deletes and modifies pages without
	// notifying remote users").
	var victim string
	for _, t := range u.Instance.Relation(sitegen.ProfPage).Tuples() {
		if t.MustGet("Rank").String() == "Associate" {
			v, _ := t.Get(adm.URLAttr)
			victim = v.String()
			if err := server.UpdatePage(sitegen.ProfPage,
				t.With("Rank", nested.TextValue("Full"))); err != nil {
				log.Fatal(err)
			}
			break
		}
	}
	fmt.Printf("\nsite update: %s promoted to Full\n", victim)
	run("after update:")
	run("fresh again:")

	// Delete a professor and its list entry: the next query flags the stale
	// link as missing; the off-line pass removes the page from the view.
	listTup, _ := u.Instance.Page(sitegen.ProfListPage, sitegen.UnivProfListURL)
	lv, _ := listTup.Get("ProfList")
	entries := lv.(nested.ListValue)
	goneURL := entries[len(entries)-1].MustGet("ToProf").String()
	server.RemovePage(goneURL)
	var kept nested.ListValue
	for _, e := range entries {
		if e.MustGet("ToProf").String() != goneURL {
			kept = append(kept, e)
		}
	}
	if err := server.UpdatePage(sitegen.ProfListPage, listTup.With("ProfList", kept)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsite deletion: %s removed\n", goneURL)
	run("after deletion:")
	fmt.Printf("CheckMissing queue: %v\n", mv.Store().MissingQueue())
	deleted, err := mv.Store().ProcessMissing(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("off-line pass removed %d stale page(s); view now holds %d pages\n", deleted, mv.Store().Len())
}
