package ir_test

import (
	"testing"

	"ivliw/internal/ir"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// benchRecurrence returns the most constraining recurrence of epicdec's
// chain loop unrolled ×4 — the shape that dominated the pre-engine profile.
func benchRecurrence(b *testing.B) (*ir.Graph, ir.Recurrence, []int) {
	spec, ok := workload.ByName("epicdec")
	if !ok {
		b.Fatal("epicdec missing")
	}
	ul := unroll.Unroll(spec.Loops[0].Loop, 4)
	g := ir.NewGraph(ul)
	assigned := ul.DefaultLatencies(15)
	recs := g.Recurrences(assigned)
	if len(recs) == 0 {
		b.Fatal("no recurrences")
	}
	return g, recs[0], assigned
}

// BenchmarkRecII compares the naive all-edges RecII against the compiled
// engine on the same component, plus the incremental perturbation query.
func BenchmarkRecII(b *testing.B) {
	g, rec, assigned := benchRecurrence(b)
	load := -1
	for _, v := range rec.Nodes {
		if g.Loop.Instrs[v].IsLoad() {
			load = v
			break
		}
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.RecII(rec.Nodes, assigned) != rec.II {
				b.Fatal("II mismatch")
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec.Eng.II(assigned) != rec.II {
				b.Fatal("II mismatch")
			}
		}
	})
	if load >= 0 {
		b.Run("engine-change", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Eng.IIWithChange(assigned, load, 1)
			}
		})
	}
}
