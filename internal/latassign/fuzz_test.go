package latassign_test

import (
	"reflect"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
)

// fuzzAssignInput decodes bytes into a latency-assignment problem. Byte 0
// picks the ladder (mod 3: the interleaved ladder, the unified ladder, or a
// permutation of the interleaved ladder chosen by the next byte) and, in
// bit 3, a second recurrence. Each recurrence is a ring of 2–6 nodes, the
// first always a load and the others loads or integer ops, closed by a flow
// edge of distance 1–3, plus up to 3 chords of flow, anti or output kind
// (distance ≥ 1 unless the chord goes to a higher node, so every cycle
// carries distance). The second recurrence may be fed by a flow edge from
// the first. Every load's profile takes Hit and Local from {0, ¼, ½, ¾, 1},
// so zero and negative stall deltas, infinite benefits and ties all occur.
// Missing bytes read as 0.
func fuzzAssignInput(data []byte) (*ir.Loop, arch.Config, latassign.Ladder, map[int]latassign.MemProfile) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head := next()
	cfg := arch.Default()
	var ld latassign.Ladder
	switch head % 3 {
	case 0:
		ld = latassign.InterleavedLadder(cfg)
	case 1:
		cfg = arch.UnifiedConfig(5)
		ld = latassign.UnifiedLadder(cfg)
	default:
		// The permutation's Lehmer code in the factorial base.
		pool := latassign.InterleavedLadder(cfg)
		code := next() % 24
		for len(pool) > 0 {
			k := code % len(pool)
			code /= len(pool)
			ld = append(ld, pool[k])
			pool = append(pool[:k], pool[k+1:]...)
		}
	}

	b := ir.NewBuilder("fuzz", 100, 1)
	prof := map[int]latassign.MemProfile{}
	prevFirst := -1
	for r := 0; r < 1+((head>>3)&1); r++ {
		k := 2 + next()%5
		first := -1
		for i := 0; i < k; i++ {
			var id int
			if i == 0 || next()%3 != 0 {
				id = b.Load("ld", ir.MemInfo{Sym: "a", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
				p := next()
				prof[id] = latassign.MemProfile{Hit: float64(p%5) / 4, Local: float64(p/5%5) / 4}
			} else {
				id = b.Op("op", ir.OpIntALU)
			}
			if i == 0 {
				first = id
			}
		}
		for i := 0; i+1 < k; i++ {
			b.Flow(first+i, first+i+1)
		}
		b.FlowD(first+k-1, first, 1+next()%3)
		for c := next() % 4; c > 0; c-- {
			from, to, dist := first+next()%k, first+next()%k, next()%3
			if to <= from && dist == 0 {
				dist = 1
			}
			b.Dep(from, to, []ir.DepKind{ir.RegFlow, ir.RegAnti, ir.RegOut}[next()%3], dist)
		}
		if prevFirst >= 0 && next()%2 == 1 {
			b.Flow(prevFirst, first)
		}
		prevFirst = first
	}
	return b.MustBuild(), cfg, ld, prof
}

// FuzzAssign checks Assign against the naive referenceAssign on generated
// loops: Steps (with their benefit values), Assigned and TargetMII must be
// identical.
func FuzzAssign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l, cfg, ld, prof := fuzzAssignInput(data)
		g := ir.NewGraph(l)
		want := referenceAssign(l, g, cfg, ld, prof)
		got := latassign.Assign(l, g, cfg, ld, prof)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ladder %v:\n got %+v\nwant %+v", ld, got, want)
		}
	})
}
