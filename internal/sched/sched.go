// Package sched implements the cluster-assigning modulo scheduler of §4.2
// and §4.3.1 Step 4: instructions are taken in swing order and inserted in
// the partial schedule without backtracking; the set of candidate clusters
// is ordered to minimize register-to-register communications and balance the
// workload; memory instructions follow one of the paper's heuristics:
//
//   - BASE: the unified-cache algorithm — memory instructions are placed
//     like any other instruction (the cache is equally distant from every
//     cluster).
//   - IBC (Interleaved Build Chains): a memory dependent chain is bound to
//     whatever cluster minimizes communications for the *first* member
//     scheduled; the remaining members follow it.
//   - IPBC (Interleaved Pre-Build Chains): chains are computed before
//     scheduling and every member goes to the chain's average preferred
//     cluster (from profiling).
//
// Inter-cluster register flow dependences get explicit copy operations that
// occupy one of the register-to-register buses for BusCycleRatio consecutive
// cycles of the modulo reservation table and add CommLatency cycles before
// the consumer may issue. If any instruction cannot be placed, the II is
// increased and scheduling restarts (iterative modulo scheduling).
package sched

import (
	"fmt"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
)

// Heuristic selects the cluster-assignment policy for memory instructions.
type Heuristic int

const (
	// Base treats memory instructions like any other instruction and is
	// the algorithm used for unified-cache and multiVLIW machines.
	Base Heuristic = iota
	// IBC builds a chain's cluster binding when its first member is
	// scheduled (minimizing communications).
	IBC
	// IPBC pre-binds every chain to its average preferred cluster.
	IPBC
)

// String returns the heuristic name used in figures.
func (h Heuristic) String() string {
	switch h {
	case Base:
		return "BASE"
	case IBC:
		return "IBC"
	case IPBC:
		return "IPBC"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// Options configures one scheduling run.
type Options struct {
	// Heuristic is the memory cluster-assignment policy.
	Heuristic Heuristic
	// ChainOf maps instruction IDs to chain IDs (-1 for non-memory).
	// Required for IBC and IPBC unless NoChains is set.
	ChainOf func(id int) int
	// Preferred maps a memory instruction ID to its target cluster under
	// IPBC (already averaged over its chain by the caller). Ignored by
	// BASE and IBC.
	Preferred func(id int) int
	// NoChains disables the chain constraint (the Figure 4/7 ablation
	// "without memory dependent chains": memory instructions are freely
	// scheduled in their preferred cluster).
	NoChains bool
	// MaxII bounds the II search; 0 means MII + 256.
	MaxII int
}

// Placement locates one instruction in the schedule.
type Placement struct {
	// Cycle is the absolute issue cycle within the flat schedule.
	Cycle int
	// Cluster is the executing cluster.
	Cluster int
}

// Copy is an explicit inter-cluster register communication.
type Copy struct {
	// From and To are the producer and consumer instruction IDs.
	From, To int
	// FromCluster and ToCluster are the endpoints.
	FromCluster, ToCluster int
	// Cycle is the absolute cycle the transfer starts.
	Cycle int
}

// Schedule is a complete modulo schedule of one loop.
type Schedule struct {
	// Loop is the scheduled loop.
	Loop *ir.Loop
	// Assigned is the latency vector the schedule was built against.
	Assigned []int
	// II is the initiation interval.
	II int
	// SC is the stage count (number of overlapped iterations).
	SC int
	// Place locates each instruction (indexed by ID).
	Place []Placement
	// Copies are the inserted inter-cluster communications.
	Copies []Copy
	// MII is the lower bound the search started from.
	MII int
}

// WorkloadBalance returns the §5.2 balance metric of the schedule:
// instructions in the most loaded cluster over total instructions, a value
// in [1/N, 1] where 1/N is perfect balance.
func (s *Schedule) WorkloadBalance(clusters int) float64 {
	if len(s.Place) == 0 {
		return 0
	}
	counts := make([]int, clusters)
	for _, p := range s.Place {
		counts[p.Cluster]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(len(s.Place))
}

// ConsumerSlack returns, for a memory instruction, the number of cycles
// between its issue and the earliest dependent register-flow consumer, in
// schedule time (II-adjusted for loop-carried edges). This is the latency
// the hardware can tolerate before stalling. Returns (slack, false) when the
// instruction has no register-flow consumer (e.g. stores), meaning it never
// stalls the pipeline.
func (s *Schedule) ConsumerSlack(id int) (int, bool) {
	slack, found := 0, false
	for _, e := range s.Loop.Edges {
		if e.Kind != ir.RegFlow || e.From != id {
			continue
		}
		d := s.Place[e.To].Cycle + s.II*e.Distance - s.Place[id].Cycle
		if !found || d < slack {
			slack, found = d, true
		}
	}
	return slack, found
}

// scheduler carries the state of one Run. Its buffers are sized once and
// reset for every II the search tries; only the Place and Copies of the
// returned Schedule are fresh allocations.
type scheduler struct {
	loop     *ir.Loop
	cfg      arch.Config
	assigned []int
	order    []int
	opt      Options
	// inc[v] lists the loop-edge indices incident to v, self-loops
	// excluded, in ascending order: the order copies are planned in.
	inc [][]int

	ii           int
	place        []Placement
	placed       []bool
	load         []int // [cluster] instructions placed
	fu           []int // [(cluster*NumFUKinds + fuKind)*ii + slot] usage count
	bus          []int // [slot] register-bus usage count
	copies       []Copy
	chainCluster map[int]int

	// Scratch reused across nodes and placement probes.
	cands    []int  // candidate clusters, most preferred first
	comm     []int  // [cluster] new communications placing v there costs
	busDelta []int  // [slot] bus reservations of the probe being planned
	touched  []int  // slots with a nonzero busDelta
	plans    []Copy // copies of the probe being planned
}

// Run schedules the loop: the node order must come from sms.Order over the
// same latency assignment. It returns an error only if no feasible schedule
// exists within the II budget.
func Run(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned []int, order []int, opt Options) (*Schedule, error) {
	if opt.ChainOf == nil {
		opt.ChainOf = func(int) int { return -1 }
	}
	if opt.Preferred == nil {
		opt.Preferred = func(int) int { return 0 }
	}
	mii := ir.MII(g, cfg, assigned)
	maxII := opt.MaxII
	if maxII <= 0 {
		maxII = mii + 256
	}
	s := newScheduler(l, g, cfg, assigned, order, opt)
	for ii := mii; ii <= maxII; ii++ {
		if sched, ok := s.attempt(ii); ok {
			sched.MII = mii
			return sched, nil
		}
	}
	return nil, fmt.Errorf("sched: no schedule for %s within II %d..%d", l.Name, mii, maxII)
}

// newScheduler allocates the per-Run state and builds the incident-edge
// lists by merging each node's ascending In and Out edge lists.
func newScheduler(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned, order []int, opt Options) *scheduler {
	n := len(l.Instrs)
	s := &scheduler{
		loop: l, cfg: cfg, assigned: assigned, order: order, opt: opt,
		inc:          make([][]int, n),
		place:        make([]Placement, n),
		placed:       make([]bool, n),
		load:         make([]int, cfg.Clusters),
		chainCluster: map[int]int{},
		cands:        make([]int, cfg.Clusters),
		comm:         make([]int, cfg.Clusters),
	}
	flat := make([]int, 0, 2*len(l.Edges))
	for v := range s.inc {
		start := len(flat)
		in, out := g.In[v], g.Out[v]
		for len(in) > 0 || len(out) > 0 {
			var ei int
			if len(out) == 0 || (len(in) > 0 && in[0] < out[0]) {
				ei, in = in[0], in[1:]
			} else {
				ei, out = out[0], out[1:]
			}
			if e := l.Edges[ei]; e.From != e.To {
				flat = append(flat, ei)
			}
		}
		s.inc[v] = flat[start:len(flat):len(flat)]
	}
	return s
}

// reset clears the per-attempt state for a new II, reusing every buffer.
func (s *scheduler) reset(ii int) {
	s.ii = ii
	clear(s.place)
	clear(s.placed)
	clear(s.load)
	s.fu = zeroed(s.fu, s.cfg.Clusters*int(arch.NumFUKinds)*ii)
	s.bus = zeroed(s.bus, ii)
	s.busDelta = zeroed(s.busDelta, ii)
	s.copies = s.copies[:0]
	clear(s.chainCluster)
}

// zeroed returns buf resized to n zero entries, reusing its storage.
func zeroed(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// attempt tries to schedule every node at the given II.
func (s *scheduler) attempt(ii int) (*Schedule, bool) {
	s.reset(ii)
	for _, v := range s.order {
		if !s.scheduleNode(v) {
			return nil, false
		}
	}
	// Bottom-up placement can produce negative cycles; normalize so the
	// schedule starts at a stage boundary (shifting by a multiple of II
	// keeps the modulo reservation tables valid).
	minCycle, maxCycle := s.place[s.order[0]].Cycle, s.place[s.order[0]].Cycle
	for _, p := range s.place {
		if p.Cycle < minCycle {
			minCycle = p.Cycle
		}
		if p.Cycle > maxCycle {
			maxCycle = p.Cycle
		}
	}
	shift := 0
	for minCycle+shift < 0 {
		shift += s.ii
	}
	if shift > 0 {
		for i := range s.place {
			s.place[i].Cycle += shift
		}
		for i := range s.copies {
			s.copies[i].Cycle += shift
		}
		maxCycle += shift
	}
	return &Schedule{
		Loop:     s.loop,
		Assigned: s.assigned,
		II:       s.ii,
		SC:       maxCycle/s.ii + 1,
		Place:    append([]Placement(nil), s.place...),
		Copies:   append([]Copy(nil), s.copies...),
	}, true
}

// scheduleNode places one instruction, trying candidate clusters in
// preference order and cycles within an II-wide window: upward from the
// earliest start when predecessors are placed (not past the latest start),
// downward from the latest start when only successors are (bottom-up sweeps
// of the swing order), and upward from cycle 0 for seeds.
func (s *scheduler) scheduleNode(v int) bool {
	for _, c := range s.candidateClusters(v) {
		est, lst, hasPred, hasSucc, ok := s.window(v, c)
		if !ok {
			continue
		}
		t, n, dt := 0, s.ii, 1
		switch {
		case hasPred:
			t = est
			if hasSucc && lst < est+s.ii-1 {
				n = lst - est + 1
			}
		case hasSucc:
			t, dt = lst, -1
		}
		for ; n > 0; n, t = n-1, t+dt {
			if s.tryPlace(v, c, t) {
				if ch := s.chainID(v); ch >= 0 {
					if _, bound := s.chainCluster[ch]; !bound {
						s.chainCluster[ch] = c
					}
				}
				return true
			}
		}
	}
	return false
}

// chainID returns the chain of v if chain constraints apply to it.
func (s *scheduler) chainID(v int) int {
	if s.opt.Heuristic == Base || s.opt.NoChains || !s.loop.Instrs[v].IsMem() {
		return -1
	}
	return s.opt.ChainOf(v)
}

// candidateClusters returns the clusters to try for v, most preferred
// first. The slice is scratch, valid until the next call.
func (s *scheduler) candidateClusters(v int) []int {
	in := s.loop.Instrs[v]

	// Chain-bound memory instructions have no choice.
	if ch := s.chainID(v); ch >= 0 {
		if c, bound := s.chainCluster[ch]; bound {
			return s.only(c)
		}
		if s.opt.Heuristic == IPBC {
			return s.only(s.opt.Preferred(v))
		}
	} else if in.IsMem() && s.opt.Heuristic == IPBC {
		// NoChains ablation: free scheduling in the preferred cluster.
		return s.only(s.opt.Preferred(v))
	}

	// comm[c] counts the register-flow edges to placed neighbors outside
	// c: all such edges minus those whose neighbor sits in c.
	clear(s.comm)
	total := 0
	for _, ei := range s.inc[v] {
		e := &s.loop.Edges[ei]
		if e.Kind != ir.RegFlow {
			continue
		}
		u := e.From
		if u == v {
			u = e.To
		}
		if s.placed[u] {
			total++
			s.comm[s.place[u].Cluster]++
		}
	}
	for c := range s.comm {
		s.comm[c] = total - s.comm[c]
	}

	// Order all clusters by (fewest new communications, best balance,
	// index). The key is total, so insertion sort matches a stable sort.
	for i := range s.cands {
		j := i
		for ; j > 0 && s.before(i, s.cands[j-1]); j-- {
			s.cands[j] = s.cands[j-1]
		}
		s.cands[j] = i
	}
	return s.cands
}

// only returns the single candidate cluster c.
func (s *scheduler) only(c int) []int {
	s.cands[0] = c
	return s.cands[:1]
}

// before orders candidate clusters by (comm, load, index).
func (s *scheduler) before(a, b int) bool {
	if s.comm[a] != s.comm[b] {
		return s.comm[a] < s.comm[b]
	}
	if s.load[a] != s.load[b] {
		return s.load[a] < s.load[b]
	}
	return a < b
}

// window computes the earliest and latest feasible issue cycle of v in
// cluster c from its already-placed neighbors, including inter-cluster
// communication latency on register-flow edges. Cycles may be negative;
// hasPred/hasSucc report whether any placed neighbor constrains each side.
func (s *scheduler) window(v, c int) (est, lst int, hasPred, hasSucc, ok bool) {
	const inf = 1 << 30
	est, lst = -inf, inf
	for _, ei := range s.inc[v] {
		e := s.loop.Edges[ei]
		pred := e.To == v
		u := e.To
		if pred {
			u = e.From
		}
		if !s.placed[u] {
			continue
		}
		cross := s.place[u].Cluster != c
		if e.Kind == ir.RegAnti && cross {
			continue // different register files: no constraint
		}
		lat := s.loop.EdgeLatency(e, s.assigned)
		if e.Kind == ir.RegFlow && cross {
			lat += s.cfg.CommLatency()
		}
		if pred {
			if t := s.place[u].Cycle + lat - s.ii*e.Distance; t > est {
				est = t
			}
			hasPred = true
		} else {
			if t := s.place[u].Cycle - lat + s.ii*e.Distance; t < lst {
				lst = t
			}
			hasSucc = true
		}
	}
	return est, lst, hasPred, hasSucc, !(hasPred && hasSucc && est > lst)
}

// tryPlace attempts to commit v to (cluster c, cycle t): the functional unit
// must be free and every cross-cluster register-flow edge to an
// already-placed neighbor must find a bus slot, planned greedily in
// loop-edge order. On success all reservations are made.
func (s *scheduler) tryPlace(v, c, t int) bool {
	kind := ir.FUFor(s.loop.Instrs[v].Class)
	slot := (c*int(arch.NumFUKinds)+int(kind))*s.ii + mod(t, s.ii)
	if s.fu[slot] >= s.cfg.FUsPerCluster[kind] {
		return false
	}

	// Plan the copies this placement needs.
	s.plans = s.plans[:0]
	for _, ei := range s.inc[v] {
		e := s.loop.Edges[ei]
		if e.Kind != ir.RegFlow {
			continue
		}
		var cp Copy
		var lo, hi int
		if e.To == v {
			p := e.From
			if !s.placed[p] || s.place[p].Cluster == c {
				continue
			}
			lo = s.place[p].Cycle + s.assigned[p] - s.ii*e.Distance
			hi = t - s.cfg.CommLatency()
			cp = Copy{From: p, To: v, FromCluster: s.place[p].Cluster, ToCluster: c}
		} else {
			cons := e.To
			if !s.placed[cons] || s.place[cons].Cluster == c {
				continue
			}
			lo = t + s.assigned[v]
			hi = s.place[cons].Cycle + s.ii*e.Distance - s.cfg.CommLatency()
			cp = Copy{From: v, To: cons, FromCluster: c, ToCluster: s.place[cons].Cluster}
		}
		tc, ok := s.reserveBus(lo, hi)
		if !ok {
			s.dropBusDelta()
			return false
		}
		cp.Cycle = tc
		s.plans = append(s.plans, cp)
	}

	// Commit.
	s.fu[slot]++
	for _, sl := range s.touched {
		s.bus[sl] += s.busDelta[sl]
	}
	s.dropBusDelta()
	s.copies = append(s.copies, s.plans...)
	s.place[v] = Placement{Cycle: t, Cluster: c}
	s.placed[v] = true
	s.load[c]++
	return true
}

// reserveBus finds the earliest start in [lo, hi] with a free bus for
// BusCycleRatio consecutive modulo slots, counting the probe's earlier
// reservations, and records the reservation in busDelta.
func (s *scheduler) reserveBus(lo, hi int) (int, bool) {
	for tc := lo; tc <= hi; tc++ {
		free := true
		for k := 0; k < s.cfg.BusCycleRatio; k++ {
			sl := mod(tc+k, s.ii)
			if s.bus[sl]+s.busDelta[sl] >= s.cfg.RegBuses {
				free = false
				break
			}
		}
		if free {
			for k := 0; k < s.cfg.BusCycleRatio; k++ {
				sl := mod(tc+k, s.ii)
				if s.busDelta[sl] == 0 {
					s.touched = append(s.touched, sl)
				}
				s.busDelta[sl]++
			}
			return tc, true
		}
	}
	return 0, false
}

// dropBusDelta clears the probe's pending bus reservations.
func (s *scheduler) dropBusDelta() {
	for _, sl := range s.touched {
		s.busDelta[sl] = 0
	}
	s.touched = s.touched[:0]
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
