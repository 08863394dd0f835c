package unify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"unify/internal/obs"
	"unify/internal/workload"
)

// openCluster builds the golden-capture configuration at the given
// cluster width: sports at size 300, trained importance function, strict
// invariant checks, default cache.
func openCluster(t *testing.T, machines int) *System {
	t.Helper()
	sys, err := New(
		WithDataset("sports"),
		WithSize(300),
		WithTrainSCE(),
		WithStrictChecks(),
		WithMachines(machines),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runClusterWorkload answers the first six seed workload queries
// sequentially, returning one answer line per query in the golden
// format (id, text, exec vtime, llm calls) and the workload's accounting
// record (see formatAccounting).
func runClusterWorkload(t *testing.T, sys *System) ([]string, string) {
	t.Helper()
	queries := workload.Generate(sys.Dataset, 1, 1)[:6]
	lines := make([]string, len(queries))
	var acct strings.Builder
	scattered := 0
	for i, q := range queries {
		ans, err := sys.Query(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		lines[i] = fmt.Sprintf("%s\t%s\t%s\t%d", q.ID, ans.Text, ans.ExecDur, ans.LLMCalls)
		fmt.Fprintf(&acct, "== M=%d %s\n", sys.Config.Machines, q.ID)
		formatAccounting(t, &acct, ans)
		for _, node := range ans.Plan.Nodes {
			if _, ok := node.Args["_scatter"]; ok {
				scattered++
				break
			}
		}
	}
	if sys.Config.Machines > 1 && scattered == 0 {
		t.Fatalf("no query scattered on a %d-machine cluster", sys.Config.Machines)
	}
	return lines, acct.String()
}

// formatAccounting renders one answer's call accounting in the
// seed_accounting golden format: the answer's counters and phase
// virtual times, its per-node stats, its cost profile (raw and as
// JSON), and its span tree with names, kinds, virtual times, and
// attributes in insertion order. Durations are nanoseconds and no
// wall-clock field appears, so the record is bit-exact across runs.
func formatAccounting(t *testing.T, b *strings.Builder, ans *Answer) {
	t.Helper()
	fmt.Fprintf(b, "answer\tcalls=%d\tcached=%d\tplanning=%d\testimation=%d\texec=%d\n",
		ans.LLMCalls, ans.CachedLLMCalls, int64(ans.PlanningDur), int64(ans.EstimationDur), int64(ans.ExecDur))
	for _, n := range ans.Nodes {
		fmt.Fprintf(b, "node\t%d\t%s\t%s\tin=%d\tout=%d\tcalls=%d\tbusy=%d\n",
			n.NodeID, n.Op, n.Physical, n.InCard, n.OutCard, n.LLMCalls, int64(n.Busy))
	}
	classes := make([]string, 0, len(ans.Profile.Classes))
	for name := range ans.Profile.Classes {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		fmt.Fprintf(b, "class\t%s\t%+v\n", name, *ans.Profile.Classes[name])
	}
	js, err := json.Marshal(ans.Profile.JSON())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "profile\t%s\n", js)
	var walk func(s *obs.Span, depth int)
	walk = func(s *obs.Span, depth int) {
		fmt.Fprintf(b, "%s%s [%s] vtime=%d", strings.Repeat("  ", depth), s.Name, s.Kind, int64(s.VDur()))
		for _, a := range s.Attrs() {
			fmt.Fprintf(b, " %s=%q", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(ans.Trace, 0)
}

// checkGolden compares got against a checked-in golden file, rewriting
// the file first when UPDATE_GOLDENS is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestClusterM1MatchesSeedGolden pins the 1-machine cluster path to the
// goldens captured from the pre-cluster single-pool code: answers,
// schedules (exec vtime, call counts), and the full Prometheus
// exposition must all be byte-identical. This is the scale-out work's
// "M=1 changes nothing" regression bar.
func TestClusterM1MatchesSeedGolden(t *testing.T) {
	sys := openCluster(t, 1)
	lines, _ := runClusterWorkload(t, sys)
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/seed_m1_answers.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("answers diverged from seed golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	var buf bytes.Buffer
	sys.Metrics.Reg.WritePrometheus(&buf)
	wantProm, err := os.ReadFile("testdata/seed_m1_metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(wantProm) {
		t.Errorf("prometheus exposition diverged from seed golden:\ngot:\n%s\nwant:\n%s", buf.String(), wantProm)
	}
}

// TestClusterWidthsAgreeAndReplay asserts the scatter-correctness
// contract end to end: a 4-machine cluster answers the workload with
// byte-identical texts to the 1-machine run (schedules differ — that is
// the speedup — but answers may not), at least one query actually
// scatters, and a repeated 4-machine run is byte-identical down to its
// schedules. Both widths' call accounting — answer counters, phase
// times, node stats, cost profiles, and span trees including scatter
// node annotations — is pinned to testdata/seed_accounting.txt
// (regenerate with UPDATE_GOLDENS=1 go test -run ClusterWidths).
func TestClusterWidthsAgreeAndReplay(t *testing.T) {
	m1, acct1 := runClusterWorkload(t, openCluster(t, 1))

	sysA := openCluster(t, 4)
	m4a, acct4 := runClusterWorkload(t, sysA)
	m4b, acct4b := runClusterWorkload(t, openCluster(t, 4))
	if acct4 != acct4b {
		t.Errorf("repeated 4-machine run diverged in its accounting")
	}
	checkGolden(t, "testdata/seed_accounting.txt", acct1+acct4)

	for i := range m1 {
		baseText := strings.SplitN(m1[i], "\t", 3)[1]
		wideText := strings.SplitN(m4a[i], "\t", 3)[1]
		if baseText != wideText {
			t.Errorf("query %d answer diverged across widths: m1=%q m4=%q", i, baseText, wideText)
		}
		if m4a[i] != m4b[i] {
			t.Errorf("repeated 4-machine run diverged at query %d:\n%s\n%s", i, m4a[i], m4b[i])
		}
	}

	if sysA.Sharding == nil || sysA.Sharding.N != 4 {
		t.Fatalf("4-machine system sharding: %+v", sysA.Sharding)
	}
	if ps := sysA.Pool.Stats(); ps.Machines != 4 || len(ps.PerMachine) != 4 {
		t.Fatalf("4-machine pool stats: machines=%d per_machine=%d", ps.Machines, len(ps.PerMachine))
	}
}
