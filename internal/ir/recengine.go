package ir

import "fmt"

// RecEngine is a compiled, reusable evaluator for the recurrence-constrained
// initiation interval of one cyclic strongly connected component. Building
// the engine re-indexes the component's endpoints once, groups its edges by
// source node (a CSR out-edge index) and splits every edge latency into a
// fixed part plus a reference to the owning instruction's assigned latency,
// so repeated II queries — the inner loop of the latency-assignment search —
// touch only the component's own edges and reuse the same scratch buffers
// instead of re-scanning all loop edges per call.
//
// The II is computed exactly, not searched: it is ⌈W/T⌉ (at least 1) for
// the component's maximum cycle ratio W/T = max over cycles of
// Σlatency/Σdistance, which Howard's policy iteration finds (Cochet-Terrasson
// et al. 1998; Dasdan, "Experimental analysis of the fastest optimum cycle
// ratio and mean algorithms", ACM TODAES 2004). The arithmetic is integer
// only: every ratio is a reduced fraction, node values are scaled by the
// ratio's denominator and ratios are compared by cross-multiplication. The
// policy (one chosen out-edge per node) survives between queries as a warm
// start, so a one-load perturbation typically converges in one or two
// O(V+E) iterations.
//
// The engine answers three queries, all through the one solve:
//
//   - II(assigned): the component's II for a latency vector;
//   - IIWithChange(assigned, instr, lat): the II if one instruction's
//     latency were changed;
//   - FeasibleWithChange(assigned, instr, lat, ii): whether that II is at
//     most ii.
//
// A binary search of Bellman-Ford feasibility probes is kept as the
// fallback for the two cases the policy iteration does not decide: a policy
// cycle of zero total distance, and an iteration count past the O(n) cap.
// Neither occurs on a valid loop.
//
// The policy, like the dist/lat scratch, is per-engine mutable state: an
// engine is not safe for concurrent use. The policy never changes a result,
// only the number of iterations a solve takes.
//
// Graph.RecII is retained as the naive reference implementation; the golden
// tests assert both agree on every component of the workload suite.
type RecEngine struct {
	// Nodes lists the member instruction IDs in ascending order. Shared
	// with the graph; callers must not modify it.
	Nodes []int
	// edges are grouped by source: node u's out-edges are
	// edges[start[u]:start[u+1]].
	edges []recEdge
	start []int
	// dist and lat are scratch buffers reused across evaluations.
	dist []int
	lat  []int

	// policy[u] is the index of u's chosen out-edge, kept across solves.
	policy []int
	// num[u]/den[u] is the reduced ratio of the policy cycle u reaches,
	// and x[u] its value scaled by den[u]; mark and path are scratch for
	// the policy-graph walk.
	num, den, x []int
	mark, path  []int
	// iterCap bounds the policy iterations of one solve.
	iterCap int
	// fallbacks counts solves decided by the Bellman-Ford search.
	fallbacks int
}

// Walk states of a node in evaluate.
const (
	unseen = iota
	onPath
	done
)

// recEdge is one dependence of the component with endpoints re-indexed to
// component-local node numbers and its latency pre-split.
type recEdge struct {
	from, to int // component-local endpoint indices
	dist     int // iteration distance
	fixed    int // latency independent of the assignment (anti 0, out/mem 1)
	latOf    int // instruction whose assigned latency the edge carries, or -1
}

// NewRecEngine compiles the component given by its sorted member node IDs.
func NewRecEngine(g *Graph, nodes []int) *RecEngine {
	n := len(nodes)
	e := &RecEngine{
		Nodes:   nodes,
		start:   make([]int, n+1),
		dist:    make([]int, n),
		policy:  make([]int, n),
		num:     make([]int, n),
		den:     make([]int, n),
		x:       make([]int, n),
		mark:    make([]int, n),
		path:    make([]int, 0, n),
		iterCap: 2*n + 16,
	}
	local := make(map[int]int, n)
	for i, v := range nodes {
		local[v] = i
	}
	for i, v := range nodes {
		e.start[i] = len(e.edges)
		for _, ei := range g.Out[v] {
			ed := g.Loop.Edges[ei]
			ti, ok := local[ed.To]
			if !ok {
				continue
			}
			re := recEdge{from: i, to: ti, dist: ed.Distance, latOf: -1}
			switch ed.Kind {
			case RegFlow:
				re.latOf = ed.From
			case RegAnti:
				// latency 0
			case RegOut, MemDep:
				re.fixed = 1
			default:
				//ivliw:invariant exhaustive switch over the dependence Kind enum, mirroring Loop.EdgeLatency
				panic(fmt.Sprintf("ir: unknown dependence kind %d", int(ed.Kind)))
			}
			e.edges = append(e.edges, re)
		}
		// Every node of a cyclic SCC has an out-edge inside it; the
		// initial policy takes the first.
		e.policy[i] = e.start[i]
	}
	e.start[n] = len(e.edges)
	e.lat = make([]int, len(e.edges))
	return e
}

// resolve fills the per-edge latency scratch for the assignment, overriding
// instruction instr to latency lat (instr < 0: no override), and returns the
// sum of all edge latencies — an upper bound on any simple-path length and
// hence on the II.
func (e *RecEngine) resolve(assigned []int, instr, lat int) int {
	sum := 0
	for i := range e.edges {
		ed := &e.edges[i]
		lt := ed.fixed
		if ed.latOf >= 0 {
			if ed.latOf == instr {
				lt += lat
			} else {
				lt += assigned[ed.latOf]
			}
		}
		e.lat[i] = lt
		sum += lt
	}
	return sum
}

// solve returns the component's II for the resolved latencies: ⌈W/T⌉ of
// the maximum cycle ratio, at least 1, or the Bellman-Ford search result
// when the policy iteration cannot decide. limit is the resolve() sum.
func (e *RecEngine) solve(limit int) int {
	if w, t, ok := e.maxCycleRatio(); ok {
		return max(1, ceilDiv(w, t))
	}
	e.fallbacks++
	return e.searchII(limit)
}

// maxCycleRatio runs Howard's policy iteration from the current policy and
// returns the maximum cycle ratio w/t in lowest terms. ok is false when a
// policy cycle has zero total distance or the iteration cap is reached.
func (e *RecEngine) maxCycleRatio() (w, t int, ok bool) {
	for it := 0; it < e.iterCap; it++ {
		if !e.evaluate() {
			return 0, 0, false
		}
		if !e.improve() {
			// No edge leads to a larger ratio, so in a strongly
			// connected component every node shares the maximum.
			return e.num[0], e.den[0], true
		}
	}
	return 0, 0, false
}

// evaluate computes, for the current policy, every node's cycle ratio and
// scaled value: each policy cycle gets its reduced ratio W/T and value 0 at
// its smallest node (so a cycle the policy keeps keeps its anchor), and
// every other node u, with policy edge k into v, takes v's ratio and
// x[u] = T·lat[k] − W·dist[k] + x[v]. It reports false if a policy cycle
// has zero total distance.
func (e *RecEngine) evaluate() bool {
	mark := e.mark
	for i := range mark {
		mark[i] = unseen
	}
	for s := range e.Nodes {
		if mark[s] != unseen {
			continue
		}
		path := e.path[:0]
		v := s
		for mark[v] == unseen {
			mark[v] = onPath
			path = append(path, v)
			v = e.edges[e.policy[v]].to
		}
		if mark[v] == onPath {
			// The walk closed a new policy cycle: path from v on.
			c := len(path) - 1
			for path[c] != v {
				c--
			}
			cyc := path[c:]
			w, t, anchor := 0, 0, 0
			for i, u := range cyc {
				k := e.policy[u]
				w += e.lat[k]
				t += e.edges[k].dist
				if u < cyc[anchor] {
					anchor = i
				}
			}
			if t == 0 {
				return false
			}
			g := gcd(w, t)
			a := cyc[anchor]
			e.num[a], e.den[a], e.x[a] = w/g, t/g, 0
			mark[a] = done
			for j := 1; j < len(cyc); j++ {
				e.inherit(cyc[(anchor-j+len(cyc))%len(cyc)])
			}
			path = path[:c]
		}
		for i := len(path) - 1; i >= 0; i-- {
			e.inherit(path[i])
		}
		e.path = path
	}
	return true
}

// inherit sets u's ratio and value from the node its policy edge enters.
func (e *RecEngine) inherit(u int) {
	k := e.policy[u]
	v := e.edges[k].to
	n, d := e.num[v], e.den[v]
	e.num[u], e.den[u] = n, d
	e.x[u] = d*e.lat[k] - n*e.edges[k].dist + e.x[v]
	e.mark[u] = done
}

// improve switches each node's policy edge to one entering a strictly larger
// ratio; only if no node has such an edge, it switches among equal-ratio
// edges to a strictly larger value T·lat − W·dist + x(to). It reports
// whether the policy changed.
func (e *RecEngine) improve() bool {
	changed := false
	for u := range e.Nodes {
		best, bn, bd := e.policy[u], e.num[u], e.den[u]
		for k := e.start[u]; k < e.start[u+1]; k++ {
			v := e.edges[k].to
			if e.num[v]*bd > bn*e.den[v] {
				best, bn, bd = k, e.num[v], e.den[v]
			}
		}
		if best != e.policy[u] {
			e.policy[u] = best
			changed = true
		}
	}
	if changed {
		return true
	}
	for u := range e.Nodes {
		n, d := e.num[u], e.den[u]
		best, bx := e.policy[u], e.x[u]
		for k := e.start[u]; k < e.start[u+1]; k++ {
			v := e.edges[k].to
			if e.num[v] != n || e.den[v] != d {
				continue
			}
			if xv := d*e.lat[k] - n*e.edges[k].dist + e.x[v]; xv > bx {
				best, bx = k, xv
			}
		}
		if best != e.policy[u] {
			e.policy[u] = best
			changed = true
		}
	}
	return changed
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// feasible reports whether no cycle of the component has positive weight
// under lat − ii·dist, by Bellman-Ford longest-path relaxation bounded to
// |nodes| rounds. limit is the resolve() latency sum: no simple path can be
// longer, so a distance exceeding it proves a positive cycle immediately.
func (e *RecEngine) feasible(ii, limit int) bool {
	dist := e.dist
	for i := range dist {
		dist[i] = 0
	}
	for round := 0; round <= len(e.Nodes); round++ {
		changed := false
		for i := range e.edges {
			ed := &e.edges[i]
			if d := dist[ed.from] + e.lat[i] - ii*ed.dist; d > dist[ed.to] {
				if d > limit {
					return false
				}
				dist[ed.to] = d
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// searchII binary-searches the smallest feasible II in [1, limit+1], like
// Graph.RecII: no cycle's ratio exceeds limit, so limit+1 is returned only
// when no II is feasible (a positive cycle of zero distance).
func (e *RecEngine) searchII(limit int) int {
	lo, hi := 1, limit+1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.feasible(mid, limit) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// II returns the component's minimum initiation interval for the latency
// vector `assigned` (indexed by instruction ID).
func (e *RecEngine) II(assigned []int) int {
	if len(e.edges) == 0 {
		return 1
	}
	return e.solve(e.resolve(assigned, -1, 0))
}

// IIWithChange returns the component's II as if instruction instr were
// assigned latency lat, leaving `assigned` untouched. The result is exact,
// from the same warm-started policy iteration as II, so it needs no bounds
// from the caller.
func (e *RecEngine) IIWithChange(assigned []int, instr, lat int) int {
	if len(e.edges) == 0 {
		return 1
	}
	return e.solve(e.resolve(assigned, instr, lat))
}

// FeasibleWithChange reports whether the component admits initiation
// interval ii when instruction instr is assigned latency lat: whether
// IIWithChange is at most ii, which for ii ≥ 1 is W ≤ ii·T for the maximum
// cycle ratio W/T.
func (e *RecEngine) FeasibleWithChange(assigned []int, instr, lat, ii int) bool {
	return e.IIWithChange(assigned, instr, lat) <= ii
}
