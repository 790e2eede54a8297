package stats

import (
	"math"
	"strings"
	"testing"

	"ulixes/internal/adm"
	"ulixes/internal/sitegen"
)

func ref(s, p string) adm.AttrRef { return adm.AttrRef{Scheme: s, Path: adm.ParsePath(p)} }

func paperStats(t *testing.T) (*sitegen.University, *Stats) {
	t.Helper()
	u, err := sitegen.GenerateUniversity(sitegen.PaperUniversityParams())
	if err != nil {
		t.Fatal(err)
	}
	return u, CollectInstance(u.Instance)
}

func TestCollectCardinalities(t *testing.T) {
	u, s := paperStats(t)
	if s.SchemeCard(sitegen.CoursePage) != float64(u.Params.Courses) {
		t.Errorf("|CoursePage| = %v", s.SchemeCard(sitegen.CoursePage))
	}
	if s.SchemeCard(sitegen.ProfPage) != float64(u.Params.Profs) {
		t.Errorf("|ProfPage| = %v", s.SchemeCard(sitegen.ProfPage))
	}
	if s.SchemeCard(sitegen.DeptPage) != float64(u.Params.Depts) {
		t.Errorf("|DeptPage| = %v", s.SchemeCard(sitegen.DeptPage))
	}
	if s.SchemeCard("Unknown") != 1 {
		t.Error("unknown scheme should default to 1")
	}
}

func TestCollectFanouts(t *testing.T) {
	u, s := paperStats(t)
	// ProfListPage has one page listing all professors.
	if got := s.FanoutOf(ref(sitegen.ProfListPage, "ProfList")); got != float64(u.Params.Profs) {
		t.Errorf("fanout(ProfListPage.ProfList) = %v", got)
	}
	// DeptPage.ProfList averages Profs/Depts.
	want := float64(u.Params.Profs) / float64(u.Params.Depts)
	if got := s.FanoutOf(ref(sitegen.DeptPage, "ProfList")); math.Abs(got-want) > 1e-9 {
		t.Errorf("fanout(DeptPage.ProfList) = %v, want %v", got, want)
	}
	// ProfPage.CourseList totals all courses over all profs.
	want = float64(u.Params.Courses) / float64(u.Params.Profs)
	if got := s.FanoutOf(ref(sitegen.ProfPage, "CourseList")); math.Abs(got-want) > 1e-9 {
		t.Errorf("fanout(ProfPage.CourseList) = %v, want %v", got, want)
	}
	// Unknown fanout defaults to 1.
	if s.FanoutOf(ref("X", "Y")) != 1 {
		t.Error("unknown fanout should default to 1")
	}
}

func TestCollectDistincts(t *testing.T) {
	u, s := paperStats(t)
	if got := s.DistinctOf(ref(sitegen.CoursePage, "Session")); got != float64(len(u.Params.Sessions)) {
		t.Errorf("c(CoursePage.Session) = %v", got)
	}
	if got := s.DistinctOf(ref(sitegen.CoursePage, "Type")); got != 2 {
		t.Errorf("c(CoursePage.Type) = %v", got)
	}
	if got := s.DistinctOf(ref(sitegen.ProfPage, "DName")); got != float64(u.Params.Depts) {
		t.Errorf("c(ProfPage.DName) = %v", got)
	}
	// Nested distinct: the links in DeptPage.ProfList cover all professors.
	if got := s.DistinctOf(ref(sitegen.DeptPage, "ProfList.ToProf")); got != float64(u.Params.Profs) {
		t.Errorf("c(DeptPage.ProfList.ToProf) = %v", got)
	}
	// Unknown attr defaults to 1.
	if s.DistinctOf(ref("X", "Y")) != 1 {
		t.Error("unknown distinct should default to 1")
	}
}

func TestSelectivity(t *testing.T) {
	u, s := paperStats(t)
	want := 1 / float64(len(u.Params.Sessions))
	if got := s.Selectivity(ref(sitegen.CoursePage, "Session")); math.Abs(got-want) > 1e-9 {
		t.Errorf("s(Session) = %v, want %v", got, want)
	}
	// Zero-distinct edge: selectivity defends against division by zero.
	s2 := New()
	s2.Distinct["X.Y"] = 0
	if s2.Selectivity(ref("X", "Y")) != 1 {
		t.Error("zero distinct should give selectivity 1")
	}
}

func TestOccurrences(t *testing.T) {
	u, s := paperStats(t)
	// Total course-list entries across professors equals total courses.
	key := ref(sitegen.ProfPage, "CourseList").String()
	if got := s.Occurrences[key]; got != float64(u.Params.Courses) {
		t.Errorf("occurrences(ProfPage.CourseList) = %v", got)
	}
}

func TestJoinSelOverride(t *testing.T) {
	s := New()
	a, b := ref("A", "L"), ref("B", "L")
	if _, ok := s.JoinSelectivity(a, b); ok {
		t.Error("no override expected")
	}
	s.SetJoinSel(a, b, 0.25)
	if v, ok := s.JoinSelectivity(b, a); !ok || v != 0.25 {
		t.Error("override should be symmetric in argument order")
	}
}

func TestStatsString(t *testing.T) {
	_, s := paperStats(t)
	out := s.String()
	for _, want := range []string{"|CoursePage| = 50", "fanout(", "distinct("} {
		if !strings.Contains(out, want) {
			t.Errorf("stats string missing %q", want)
		}
	}
}
