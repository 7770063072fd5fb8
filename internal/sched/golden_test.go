package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/sched"
	"ivliw/internal/sms"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// referenceRun is the pre-optimization scheduler, retained verbatim (names
// prefixed, comments trimmed) as the golden reference: a fresh scheduler
// per II attempt, a cycles slice per
// placement, candidate clusters ranked by rescanning every loop edge per
// cluster and sorted with sort.SliceStable, window and tryPlace rescanning
// every loop edge, and a map of pending bus reservations per probe.
// TestGoldenSchedule asserts sched.Run produces deeply equal schedules.
func referenceRun(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned []int, order []int, opt sched.Options) (*sched.Schedule, error) {
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
	for ii := mii; ii <= maxII; ii++ {
		s := &refScheduler{
			loop: l, g: g, cfg: cfg, assigned: assigned, order: order, opt: opt, ii: ii,
		}
		if sched, ok := s.attempt(); ok {
			sched.MII = mii
			return sched, nil
		}
	}
	return nil, fmt.Errorf("sched: no schedule for %s within II %d..%d", l.Name, mii, maxII)
}

type refScheduler struct {
	loop     *ir.Loop
	g        *ir.Graph
	cfg      arch.Config
	assigned []int
	order    []int
	opt      sched.Options

	ii           int
	place        []sched.Placement
	placed       []bool
	fu           [][]int // [cluster][fuKind*ii + slot] usage count
	bus          []int   // [slot] register-bus usage count
	copies       []sched.Copy
	chainCluster map[int]int
}

func (s *refScheduler) attempt() (*sched.Schedule, bool) {
	n := len(s.loop.Instrs)
	s.place = make([]sched.Placement, n)
	s.placed = make([]bool, n)
	s.fu = make([][]int, s.cfg.Clusters)
	for c := range s.fu {
		s.fu[c] = make([]int, int(arch.NumFUKinds)*s.ii)
	}
	s.bus = make([]int, s.ii)
	s.copies = nil
	s.chainCluster = map[int]int{}

	for _, v := range s.order {
		if !s.scheduleNode(v) {
			return nil, false
		}
	}
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
	return &sched.Schedule{
		Loop:     s.loop,
		Assigned: s.assigned,
		II:       s.ii,
		SC:       maxCycle/s.ii + 1,
		Place:    s.place,
		Copies:   s.copies,
	}, true
}

func (s *refScheduler) scheduleNode(v int) bool {
	for _, c := range s.candidateClusters(v) {
		est, lst, hasPred, hasSucc, ok := s.window(v, c)
		if !ok {
			continue
		}
		var cycles []int
		switch {
		case hasPred:
			hi := est + s.ii - 1
			if hasSucc && lst < hi {
				hi = lst
			}
			for t := est; t <= hi; t++ {
				cycles = append(cycles, t)
			}
		case hasSucc:
			for t := lst; t > lst-s.ii; t-- {
				cycles = append(cycles, t)
			}
		default:
			for t := 0; t < s.ii; t++ {
				cycles = append(cycles, t)
			}
		}
		for _, t := range cycles {
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

func (s *refScheduler) chainID(v int) int {
	if s.opt.Heuristic == sched.Base || s.opt.NoChains || !s.loop.Instrs[v].IsMem() {
		return -1
	}
	return s.opt.ChainOf(v)
}

func (s *refScheduler) candidateClusters(v int) []int {
	in := s.loop.Instrs[v]

	if ch := s.chainID(v); ch >= 0 {
		if c, bound := s.chainCluster[ch]; bound {
			return []int{c}
		}
		if s.opt.Heuristic == sched.IPBC {
			return []int{s.opt.Preferred(v)}
		}
	} else if in.IsMem() && s.opt.Heuristic == sched.IPBC {
		return []int{s.opt.Preferred(v)}
	}

	type cand struct {
		c    int
		comm int
		load int
	}
	cands := make([]cand, s.cfg.Clusters)
	loads := make([]int, s.cfg.Clusters)
	for i, p := range s.place {
		if s.placed[i] {
			loads[p.Cluster]++
		}
	}
	for c := 0; c < s.cfg.Clusters; c++ {
		comm := 0
		for _, e := range s.loop.Edges {
			if e.Kind != ir.RegFlow {
				continue
			}
			switch {
			case e.From == v && e.To != v && s.placed[e.To] && s.place[e.To].Cluster != c:
				comm++
			case e.To == v && e.From != v && s.placed[e.From] && s.place[e.From].Cluster != c:
				comm++
			}
		}
		cands[c] = cand{c: c, comm: comm, load: loads[c]}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].comm != cands[j].comm {
			return cands[i].comm < cands[j].comm
		}
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].c < cands[j].c
	})
	out := make([]int, len(cands))
	for i, cd := range cands {
		out[i] = cd.c
	}
	return out
}

func (s *refScheduler) window(v, c int) (est, lst int, hasPred, hasSucc, ok bool) {
	const inf = 1 << 30
	est, lst = -inf, inf
	for _, e := range s.loop.Edges {
		if e.To == v && e.From != v && s.placed[e.From] {
			if e.Kind == ir.RegAnti && s.place[e.From].Cluster != c {
				continue
			}
			lat := s.loop.EdgeLatency(e, s.assigned)
			if e.Kind == ir.RegFlow && s.place[e.From].Cluster != c {
				lat += s.cfg.CommLatency()
			}
			if t := s.place[e.From].Cycle + lat - s.ii*e.Distance; t > est {
				est = t
			}
			hasPred = true
		}
		if e.From == v && e.To != v && s.placed[e.To] {
			if e.Kind == ir.RegAnti && s.place[e.To].Cluster != c {
				continue
			}
			lat := s.loop.EdgeLatency(e, s.assigned)
			if e.Kind == ir.RegFlow && s.place[e.To].Cluster != c {
				lat += s.cfg.CommLatency()
			}
			if t := s.place[e.To].Cycle - lat + s.ii*e.Distance; t < lst {
				lst = t
			}
			hasSucc = true
		}
	}
	return est, lst, hasPred, hasSucc, !(hasPred && hasSucc && est > lst)
}

func (s *refScheduler) tryPlace(v, c, t int) bool {
	kind := ir.FUFor(s.loop.Instrs[v].Class)
	slot := int(kind)*s.ii + refMod(t, s.ii)
	if s.fu[c][slot] >= s.cfg.FUsPerCluster[kind] {
		return false
	}

	type plan struct{ copyOp sched.Copy }
	var plans []plan
	busDelta := make(map[int]int)
	reserveBus := func(from, lo, hi int) (int, bool) {
		for tc := lo; tc <= hi; tc++ {
			free := true
			for k := 0; k < s.cfg.BusCycleRatio; k++ {
				sl := refMod(tc+k, s.ii)
				if s.bus[sl]+busDelta[sl] >= s.cfg.RegBuses {
					free = false
					break
				}
			}
			if free {
				for k := 0; k < s.cfg.BusCycleRatio; k++ {
					busDelta[refMod(tc+k, s.ii)]++
				}
				return tc, true
			}
		}
		return 0, false
	}

	for _, e := range s.loop.Edges {
		if e.Kind != ir.RegFlow {
			continue
		}
		switch {
		case e.To == v && e.From != v && s.placed[e.From] && s.place[e.From].Cluster != c:
			p := e.From
			lo := s.place[p].Cycle + s.assigned[p] - s.ii*e.Distance
			hi := t - s.cfg.CommLatency()
			tc, ok := reserveBus(p, lo, hi)
			if !ok {
				return false
			}
			plans = append(plans, plan{sched.Copy{From: p, To: v, FromCluster: s.place[p].Cluster, ToCluster: c, Cycle: tc}})
		case e.From == v && e.To != v && s.placed[e.To] && s.place[e.To].Cluster != c:
			cons := e.To
			lo := t + s.assigned[v]
			hi := s.place[cons].Cycle + s.ii*e.Distance - s.cfg.CommLatency()
			tc, ok := reserveBus(v, lo, hi)
			if !ok {
				return false
			}
			plans = append(plans, plan{sched.Copy{From: v, To: cons, FromCluster: c, ToCluster: s.place[cons].Cluster, Cycle: tc}})
		}
	}

	s.fu[c][slot]++
	for sl, d := range busDelta {
		s.bus[sl] += d
	}
	for _, p := range plans {
		s.copies = append(s.copies, p.copyOp)
	}
	s.place[v] = sched.Placement{Cycle: t, Cluster: c}
	s.placed[v] = true
	return true
}

func refMod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// clusterConfig returns the Table 2 machine with the given cluster count.
func clusterConfig(clusters int) arch.Config {
	cfg := arch.Default()
	cfg.Clusters = clusters
	return cfg
}

// synthProfiles derives deterministic hit/local profiles from instruction
// IDs, so the latency assignment lowers some loads and not others.
func synthProfiles(l *ir.Loop) map[int]latassign.MemProfile {
	prof := map[int]latassign.MemProfile{}
	for _, id := range l.MemInstrs() {
		prof[id] = latassign.MemProfile{
			Hit:   float64((id*7)%11) / 10,
			Local: float64((id*3)%5) / 4,
		}
	}
	return prof
}

// compileInputs runs the stages before scheduling: the latency vector from
// latassign.Assign, the node order from sms.Order, and the chains.
func compileInputs(l *ir.Loop, cfg arch.Config) (g *ir.Graph, assigned, order []int, cs *chains.Set) {
	g = ir.NewGraph(l)
	la := latassign.Assign(l, g, cfg, latassign.InterleavedLadder(cfg), synthProfiles(l))
	return g, la.Assigned, sms.Order(g, la.Assigned), chains.Build(l)
}

// preferred returns a deterministic IPBC target cluster: shared by a chain's
// members unless chains are off.
func preferred(cs *chains.Set, clusters int, noChains bool) func(int) int {
	return func(id int) int {
		if ch := cs.ChainOf(id); ch >= 0 && !noChains {
			return (ch*3 + 1) % clusters
		}
		return (id * 5) % clusters
	}
}

// randomLoop builds a loop of 4–27 loads, stores and ALU ops with dense
// forward flow edges, memory edges and an optional loop-carried flow edge,
// so placements often need several copies at once.
func randomLoop(rng *rand.Rand) *ir.Loop {
	n := 4 + rng.Intn(24)
	b := ir.NewBuilder("rand", 100, 1)
	ids := make([]int, n)
	var mems []int
	for i := range ids {
		switch rng.Intn(5) {
		case 0:
			ids[i] = b.Load("ld", ir.MemInfo{Sym: "a", Offset: int64(4 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
			mems = append(mems, ids[i])
		case 1:
			ids[i] = b.Store("st", ir.MemInfo{Sym: "b", Offset: int64(4 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
			mems = append(mems, ids[i])
		case 2:
			ids[i] = b.Op("fp", ir.OpFPALU)
		default:
			ids[i] = b.Op("op", ir.OpIntALU)
		}
	}
	for i := range ids {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Flow(ids[i], ids[j])
			}
		}
	}
	for k := 0; k+1 < len(mems); k += 2 {
		if rng.Float64() < 0.5 {
			b.MemEdge(mems[k], mems[k+1], 0)
		}
	}
	if rng.Float64() < 0.5 {
		b.FlowD(ids[n-1], ids[0], 1)
	}
	return b.MustBuild()
}

// TestGoldenSchedule: sched.Run must return a schedule deeply equal to the
// reference scheduler's — placements, copies in order, II, SC and MII — on
// every loop of the workload suite, at unroll factors 1 and 4, and on
// seeded random loops (also with a single register bus), under every
// heuristic with chains on and off, on 2-, 4- and 8-cluster machines.
func TestGoldenSchedule(t *testing.T) {
	type loopCase struct {
		name  string
		loop  *ir.Loop
		buses int
	}
	var loops []loopCase
	for _, spec := range workload.Suite() {
		for _, ls := range spec.Loops {
			for _, u := range []int{1, 4} {
				loops = append(loops, loopCase{fmt.Sprintf("%s/%s/u%d", spec.Name, ls.Loop.Name, u), unroll.Unroll(ls.Loop, u), 0})
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		loops = append(loops, loopCase{fmt.Sprintf("rand%d", trial), randomLoop(rng), 1 + trial%2})
	}
	for _, clusters := range []int{2, 4, 8} {
		for _, lc := range loops {
			cfg := clusterConfig(clusters)
			if lc.buses > 0 {
				cfg.RegBuses = lc.buses
			}
			g, assigned, order, cs := compileInputs(lc.loop, cfg)
			for _, h := range []sched.Heuristic{sched.Base, sched.IBC, sched.IPBC} {
				for _, noChains := range []bool{false, true} {
					label := fmt.Sprintf("c%d/%s/%v/nochains=%v", clusters, lc.name, h, noChains)
					opt := sched.Options{
						Heuristic: h,
						ChainOf:   cs.ChainOf,
						Preferred: preferred(cs, clusters, noChains),
						NoChains:  noChains,
					}
					want, werr := referenceRun(lc.loop, g, cfg, assigned, order, opt)
					got, gerr := sched.Run(lc.loop, g, cfg, assigned, order, opt)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s: error = %v, want %v", label, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: schedule differs from the reference\n got %+v\nwant %+v", label, got, want)
					}
				}
			}
		}
	}
}
