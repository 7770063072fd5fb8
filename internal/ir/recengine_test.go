package ir_test

import (
	"testing"

	"ivliw/internal/ir"
)

// TestNoFallbacks: on every loop of the workload suite at unroll 1 and 4,
// under each latency vector and every single-load perturbation the
// latency-assignment search makes, the policy iteration decides every
// solve; the Bellman-Ford fallback never runs.
func TestNoFallbacks(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		l := loops[gi]
		for _, assigned := range latencyVectors(l) {
			for _, rec := range g.Recurrences(assigned) {
				for _, m := range rec.Nodes {
					if !l.Instrs[m].IsLoad() {
						continue
					}
					for _, lat := range []int{1, 5, 10, 15, 22} {
						rec.Eng.IIWithChange(assigned, m, lat)
					}
				}
			}
		}
		for _, e := range g.RecEngines() {
			if n := ir.Fallbacks(e); n != 0 {
				t.Errorf("%s rec@%d: %d fallback solves, want 0", labels[gi], e.Nodes[0], n)
			}
		}
	}
}

// TestZeroDistanceFallback: a policy cycle of zero total distance sends the
// solve to the Bellman-Ford search, which must agree with RecII both for a
// positive-latency cycle (no II is feasible) and for an anti-dependence
// cycle of latency 0 (which constrains nothing).
func TestZeroDistanceFallback(t *testing.T) {
	for _, kind := range []ir.DepKind{ir.RegFlow, ir.RegAnti} {
		b := ir.NewBuilder("zero-"+kind.String(), 100, 1)
		a := b.Load("a", ir.MemInfo{Gran: 4})
		c := b.Op("c", ir.OpIntALU)
		// a's first out-edge, hence its initial policy, is a→c, so the
		// first policy graph closes the zero-distance cycle a→c→a.
		b.Dep(a, c, kind, 0).Dep(c, a, kind, 0).FlowD(a, a, 1)
		l := b.MustBuild()
		g := ir.NewGraph(l)
		e := g.RecEngines()[0]
		for _, lat := range []int{1, 9, 40} {
			assigned := l.DefaultLatencies(lat)
			if got, want := e.II(assigned), g.RecII(e.Nodes, assigned); got != want {
				t.Errorf("%s lat %d: II = %d, want %d", kind, lat, got, want)
			}
		}
		if n := ir.Fallbacks(e); n != 3 {
			t.Errorf("%s: %d fallback solves, want 3", kind, n)
		}
	}
}

// TestIterCapFallback: with the iteration cap at 0 every solve goes to the
// Bellman-Ford search, which must agree with RecII across the suite.
func TestIterCapFallback(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		for _, e := range g.RecEngines() {
			ir.SetIterCap(e, 0)
			vecs := latencyVectors(loops[gi])
			for vi, assigned := range vecs {
				if got, want := e.II(assigned), g.RecII(e.Nodes, assigned); got != want {
					t.Errorf("%s rec@%d vec%d: II = %d, want %d", labels[gi], e.Nodes[0], vi, got, want)
				}
			}
			if n := ir.Fallbacks(e); n != len(vecs) {
				t.Errorf("%s rec@%d: %d fallback solves, want %d", labels[gi], e.Nodes[0], n, len(vecs))
			}
		}
	}
}
