package ir_test

import (
	"fmt"
	"testing"

	"ivliw/internal/ir"
)

// fuzzSCC decodes bytes into one strongly connected component, a latency
// vector and a perturbation (instr, lat). Byte 0 gives the node count
// (1–12) and, in its top bit, whether zero-distance cycles are allowed.
// Every node is a load with a latency of 0–40. A spanning cycle 0→1→…→0
// makes the graph strongly connected; up to 23 extra edges (self-loops
// included) follow, each of any Kind with distance 0–3. Unless zero-distance
// cycles are allowed, an edge that does not go to a higher node gets
// distance ≥ 1, so every cycle has positive total distance. Missing bytes
// read as 0.
func fuzzSCC(data []byte) (l *ir.Loop, assigned []int, instr, lat int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head := next()
	n, zeroDist := 1+(head&0x7f)%12, head >= 0x80
	l = &ir.Loop{Name: "fuzz", Unroll: 1}
	assigned = make([]int, n)
	for i := range n {
		l.Instrs = append(l.Instrs, &ir.Instr{ID: i, Name: fmt.Sprint("n", i), Class: ir.OpLoad, Mem: &ir.MemInfo{Gran: 4}})
		assigned[i] = next() % 41
	}
	edge := func(from, to int) {
		kind, dist := ir.DepKind(next()%4), next()%4
		if !zeroDist && to <= from && dist == 0 {
			dist = 1
		}
		l.Edges = append(l.Edges, ir.Edge{From: from, To: to, Kind: kind, Distance: dist})
	}
	for i := range n {
		edge(i, (i+1)%n)
	}
	for m := next() % 24; m > 0; m-- {
		edge(next()%n, next()%n)
	}
	return l, assigned, next() % n, next() % 41
}

// checkCertificate verifies the optimality certificate of eng's last solve:
// with W/T the returned ratio, every edge satisfies
// lat·T − W·dist + x(to) ≤ x(from) (so no cycle's ratio exceeds W/T), and
// the policy cycle reached from node 0 attains W/T.
func checkCertificate(t *testing.T, eng *ir.RecEngine, ii int) {
	t.Helper()
	edges, policy, x, w, tt := ir.Certificate(eng)
	if tt <= 0 {
		t.Fatalf("ratio %d/%d has non-positive denominator", w, tt)
	}
	if want := max(1, (w+tt-1)/tt); ii != want {
		t.Fatalf("II %d, want ⌈%d/%d⌉ = %d", ii, w, tt, want)
	}
	for _, e := range edges {
		if e.Lat*tt-w*e.Dist+x[e.To] > x[e.From] {
			t.Fatalf("edge %+v violates the certificate: x = %v, ratio %d/%d", e, x, w, tt)
		}
	}
	seen := make([]bool, len(policy))
	v := 0
	for !seen[v] {
		seen[v] = true
		v = edges[policy[v]].To
	}
	cw, ct := 0, 0
	for u := v; ; {
		e := edges[policy[u]]
		cw, ct = cw+e.Lat, ct+e.Dist
		if u = e.To; u == v {
			break
		}
	}
	if cw*tt != w*ct {
		t.Fatalf("policy cycle ratio %d/%d does not attain %d/%d", cw, ct, w, tt)
	}
}

// FuzzRecEngine checks the engine against the naive Graph.RecII on
// generated components: II, IIWithChange and FeasibleWithChange at II−1,
// II and II+1, for the base vector and a one-instruction perturbation,
// plus the optimality certificate of every solve the policy iteration
// decided.
func FuzzRecEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l, assigned, instr, lat := fuzzSCC(data)
		g := ir.NewGraph(l)
		engs := g.RecEngines()
		if len(engs) != 1 || len(engs[0].Nodes) != len(l.Instrs) {
			t.Fatalf("want one engine over all %d nodes, got %d", len(l.Instrs), len(engs))
		}
		eng := engs[0]
		// solve runs one query against its RecII value and, unless the
		// query took the fallback, checks the solve's certificate.
		solve := func(label string, query func() int, want int) {
			t.Helper()
			fb := ir.Fallbacks(eng)
			if got := query(); got != want {
				t.Fatalf("%s = %d, want %d (RecII)", label, got, want)
			}
			if ir.Fallbacks(eng) == fb {
				checkCertificate(t, eng, want)
			}
		}
		base := g.RecII(eng.Nodes, assigned)
		solve("II", func() int { return eng.II(assigned) }, base)
		mutated := append([]int(nil), assigned...)
		mutated[instr] = lat
		want := g.RecII(eng.Nodes, mutated)
		solve("IIWithChange", func() int { return eng.IIWithChange(assigned, instr, lat) }, want)

		for _, c := range []struct{ lat, ii int }{{assigned[instr], base}, {lat, want}} {
			for ii := c.ii - 1; ii <= c.ii+1; ii++ {
				if got := eng.FeasibleWithChange(assigned, instr, c.lat, ii); got != (c.ii <= ii) {
					t.Fatalf("FeasibleWithChange(instr %d, lat %d, ii %d) = %v, RecII %d", instr, c.lat, ii, got, c.ii)
				}
			}
		}
	})
}
