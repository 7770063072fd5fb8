package ir

// Fallbacks returns how many of e's solves the Bellman-Ford search decided.
func Fallbacks(e *RecEngine) int { return e.fallbacks }

// SetIterCap sets e's policy-iteration cap; 0 sends every solve to the
// Bellman-Ford fallback.
func SetIterCap(e *RecEngine, n int) { e.iterCap = n }

// CertEdge is one component edge with the latency of e's last solve.
type CertEdge struct{ From, To, Lat, Dist int }

// Certificate returns the state e's last policy-iteration solve ended in:
// its edges, the policy (an edge index per node), the scaled node values
// and the maximum cycle ratio w/t.
func Certificate(e *RecEngine) (edges []CertEdge, policy, x []int, w, t int) {
	for i, ed := range e.edges {
		edges = append(edges, CertEdge{From: ed.from, To: ed.to, Lat: e.lat[i], Dist: ed.dist})
	}
	return edges, e.policy, e.x, e.num[0], e.den[0]
}
