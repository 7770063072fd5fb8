package ir_test

import (
	"fmt"
	"sort"
	"testing"

	"ivliw/internal/ir"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// The tests below pin the RecEngine fast path to the retained naive
// reference (Graph.RecII over all loop edges): across every loop of the
// workload suite, at several unroll factors and latency vectors, the
// engine-backed Recurrences and the perturbation query IIWithChange must be
// bit-identical to the reference.

// naiveRecurrences recomputes Recurrences the pre-engine way: SCCs filtered
// to cyclic components, II per component via the naive RecII, sorted by
// decreasing II with ties broken by smallest member ID.
func naiveRecurrences(g *ir.Graph, assigned []int) []ir.Recurrence {
	var recs []ir.Recurrence
	for _, comp := range g.SCCs() {
		if !naiveHasCycle(g, comp) {
			continue
		}
		recs = append(recs, ir.Recurrence{Nodes: comp, II: g.RecII(comp, assigned)})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].II != recs[j].II {
			return recs[i].II > recs[j].II
		}
		return recs[i].Nodes[0] < recs[j].Nodes[0]
	})
	return recs
}

func naiveHasCycle(g *ir.Graph, comp []int) bool {
	if len(comp) > 1 {
		return true
	}
	for _, ei := range g.Out[comp[0]] {
		if g.Loop.Edges[ei].To == comp[0] {
			return true
		}
	}
	return false
}

// suiteGraphs yields every loop of the workload suite at unroll factors 1
// and 4, as (label, loop, graph).
func suiteGraphs(t testing.TB) (labels []string, loops []*ir.Loop, graphs []*ir.Graph) {
	for _, spec := range workload.Suite() {
		for _, ls := range spec.Loops {
			for _, u := range []int{1, 4} {
				ul := unroll.Unroll(ls.Loop, u)
				labels = append(labels, fmt.Sprintf("%s/%s/u%d", spec.Name, ls.Loop.Name, u))
				loops = append(loops, ul)
				graphs = append(graphs, ir.NewGraph(ul))
			}
		}
	}
	return
}

// latencyVectors returns the assignments the equivalence is checked under:
// all-remote-miss, all-local-hit, and a deterministic mixed vector.
func latencyVectors(l *ir.Loop) [][]int {
	mixed := l.DefaultLatencies(15)
	for i, in := range l.Instrs {
		if in.IsLoad() {
			mixed[i] = []int{1, 5, 10, 15}[i%4]
		}
	}
	return [][]int{l.DefaultLatencies(15), l.DefaultLatencies(1), mixed}
}

// TestGoldenRecurrences: engine-backed Recurrences must match the naive
// reference exactly (member sets, IIs, and ordering).
func TestGoldenRecurrences(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		for vi, assigned := range latencyVectors(loops[gi]) {
			want := naiveRecurrences(g, assigned)
			got := g.Recurrences(assigned)
			if len(got) != len(want) {
				t.Fatalf("%s vec%d: %d recurrences, want %d", labels[gi], vi, len(got), len(want))
			}
			for i := range want {
				if got[i].II != want[i].II {
					t.Errorf("%s vec%d rec%d: II = %d, want %d", labels[gi], vi, i, got[i].II, want[i].II)
				}
				if !equalInts(got[i].Nodes, want[i].Nodes) {
					t.Errorf("%s vec%d rec%d: nodes = %v, want %v", labels[gi], vi, i, got[i].Nodes, want[i].Nodes)
				}
				if got[i].Eng == nil {
					t.Errorf("%s vec%d rec%d: nil engine", labels[gi], vi, i)
				}
			}
		}
	}
}

// TestGoldenIIWithChange: for every recurrence load and candidate latency
// (lowering and raising), the perturbation query must agree
// with the naive RecII on the mutated vector.
func TestGoldenIIWithChange(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		l := loops[gi]
		assigned := l.DefaultLatencies(15)
		for _, rec := range g.Recurrences(assigned) {
			for _, m := range rec.Nodes {
				if !l.Instrs[m].IsLoad() {
					continue
				}
				for _, lat := range []int{1, 5, 10, 15, 22} {
					saved := assigned[m]
					assigned[m] = lat
					want := g.RecII(rec.Nodes, assigned)
					assigned[m] = saved
					if got := rec.Eng.IIWithChange(assigned, m, lat); got != want {
						t.Errorf("%s rec@%d load %d lat %d: IIWithChange = %d, want %d",
							labels[gi], rec.Nodes[0], m, lat, got, want)
					}
					feasWant := want <= rec.II
					if got := rec.Eng.FeasibleWithChange(assigned, m, lat, rec.II); got != feasWant {
						t.Errorf("%s rec@%d load %d lat %d: FeasibleWithChange(%d) = %v, want %v",
							labels[gi], rec.Nodes[0], m, lat, rec.II, got, feasWant)
					}
				}
			}
		}
	}
}

// TestGoldenRecMII: the engine-backed RecMII must match a max over the
// naive per-recurrence IIs.
func TestGoldenRecMII(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		for vi, assigned := range latencyVectors(loops[gi]) {
			want := 1
			for _, r := range naiveRecurrences(g, assigned) {
				if r.II > want {
					want = r.II
				}
			}
			if got := ir.RecMII(g, assigned); got != want {
				t.Errorf("%s vec%d: RecMII = %d, want %d", labels[gi], vi, got, want)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
