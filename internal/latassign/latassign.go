// Package latassign implements the latency-assignment step of the proposed
// scheduling algorithm (§4.2 Step "Memory nodes are scheduled with the cache
// hit or miss latency", §4.3.1 Step 2 and the §4.3.3 worked example).
//
// All memory instructions start at the largest latency (remote miss for the
// interleaved machine, miss for the unified one). Then, one recurrence at a
// time from most to least constraining, the latency of selectively chosen
// loads is lowered so that the recurrence's initiation interval matches the
// MII the loop would have if every memory instruction had a local-hit
// latency. Candidates are ranked by the benefit function
//
//	B(M, L, L') = (oldII − newII) / (newSTALL − oldSTALL)
//
// where the stall estimates come from the profiled hit rate and local-access
// ratio of each instruction. Finally, the last instruction changed in a
// recurrence is raised again so the recurrence II equals the MII and not
// less (slack re-absorption; footnote 3 of the paper).
package latassign

import (
	"math"
	"slices"
	"sort"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
)

// MemProfile carries the profile information the benefit function needs for
// one memory instruction.
type MemProfile struct {
	// Hit is the profiled cache hit rate in [0, 1].
	Hit float64
	// Local is the expected ratio of local accesses in [0, 1] (the
	// fraction of the instruction's references that touch the cluster it
	// will be scheduled in). Meaningless for unified machines.
	Local float64
}

// Step records one latency change for inspection (the §4.3.3 tables).
type Step struct {
	// Instr is the ID of the changed instruction.
	Instr int
	// From and To are the latencies before and after the change.
	From, To int
	// DeltaII is the decrease in the recurrence II.
	DeltaII int
	// DeltaStall is the estimated increase in per-execution stall time.
	DeltaStall float64
	// B is the benefit value that won the step.
	B float64
	// Slack marks the final re-raise step of a recurrence.
	Slack bool
}

// Result is the outcome of the assignment pass.
type Result struct {
	// Assigned is the per-instruction latency vector (indexed by ID).
	Assigned []int
	// TargetMII is the MII the pass drove recurrences toward.
	TargetMII int
	// Steps is the ordered list of latency changes performed.
	Steps []Step
}

// Ladder is the ordered set of candidate latencies explored when lowering a
// load, from smallest to largest.
type Ladder []int

// InterleavedLadder returns the four latency classes of the interleaved
// machine (local hit, remote hit, local miss, remote miss).
func InterleavedLadder(cfg arch.Config) Ladder {
	l := cfg.MemLatencies()
	return Ladder{l[arch.LocalHit], l[arch.RemoteHit], l[arch.LocalMiss], l[arch.RemoteMiss]}
}

// UnifiedLadder returns the two latency classes of the unified machine (hit,
// miss); this is the BASE algorithm's selective latency assignment.
func UnifiedLadder(cfg arch.Config) Ladder {
	return Ladder{cfg.UnifiedHitLatency(), cfg.UnifiedMissLatency()}
}

// Max returns the largest latency of the ladder (the initial assignment).
func (ld Ladder) Max() int { return ld[len(ld)-1] }

// Min returns the smallest latency of the ladder (the MII target latency).
func (ld Ladder) Min() int { return ld[0] }

// ExpectedStall estimates the stall time generated each time the instruction
// executes if scheduled with latency la, given its profile and the ladder's
// latency classes. For the 4-class interleaved ladder the access-type
// probabilities are the products of hit/miss and local/remote probabilities;
// for the 2-class unified ladder only hit/miss applies.
func ExpectedStall(ld Ladder, p MemProfile, la int) float64 {
	switch len(ld) {
	case 4:
		lh, rh, lm, rm := float64(ld[0]), float64(ld[1]), float64(ld[2]), float64(ld[3])
		probs := [4]float64{
			p.Hit * p.Local,
			p.Hit * (1 - p.Local),
			(1 - p.Hit) * p.Local,
			(1 - p.Hit) * (1 - p.Local),
		}
		lats := [4]float64{lh, rh, lm, rm}
		s := 0.0
		for i, pr := range probs {
			if d := lats[i] - float64(la); d > 0 {
				s += pr * d
			}
		}
		return s
	case 2:
		miss := float64(ld[1])
		if d := miss - float64(la); d > 0 {
			return (1 - p.Hit) * d
		}
		return 0
	default:
		//ivliw:invariant ladders are built from arch.Config.MemLatencies (4 classes) or hit/miss pairs (2); no other constructor exists
		panic("latassign: ladder must have 2 or 4 classes")
	}
}

// Assign runs the latency-assignment pass over the loop. prof maps memory
// instruction IDs to their profiles; instructions without an entry are
// treated as hit rate 0 (they keep the maximum latency unless a recurrence
// forces them down, in which case stall estimates assume the worst).
func Assign(l *ir.Loop, g *ir.Graph, cfg arch.Config, ld Ladder, prof map[int]MemProfile) Result {
	assigned := l.DefaultLatencies(ld.Max())

	// Target MII: the MII of the loop if all memory instructions had the
	// smallest (local hit / hit) latency, also bounded by resources.
	target := ir.RecMII(g, l.DefaultLatencies(ld.Min()))
	if res := ir.ResMII(l, cfg); res > target {
		target = res
	}

	res := Result{Assigned: assigned, TargetMII: target}

	// Recurrences are node-disjoint and a flow edge's latency belongs to
	// its in-component producer, so steps applied to one recurrence never
	// change another's II: the IIs computed here stay valid throughout.
	recs := g.Recurrences(assigned)
	minLat := slices.Min(ld)
	var lowest []int
	for _, rec := range recs {
		loads := recLoads(l, rec.Nodes)
		if len(loads) == 0 {
			continue
		}
		// floor is the recurrence's II with every load at the smallest
		// ladder entry (not ld[0]: nothing enforces an ascending ladder).
		// II is monotone in latency and loads only take ladder values, so
		// floor bounds every II a step can reach from below.
		lowest = append(lowest[:0], assigned...)
		for _, m := range loads {
			lowest[m] = minLat
		}
		floor := rec.Eng.II(lowest)
		ii := rec.II
		last := -1
		for ii > target {
			step, ok := bestStep(rec.Eng, loads, ld, prof, assigned, ii, floor)
			if !ok {
				break // no remaining change lowers the II
			}
			assigned[step.Instr] = step.To
			ii -= step.DeltaII
			last = step.Instr
			res.Steps = append(res.Steps, step)
		}
		// Slack re-absorption: raise the last changed load so the
		// recurrence II equals the target and not less.
		if last >= 0 && ii < target {
			raised := raiseToTarget(rec.Eng, assigned, last, ld.Max(), target)
			if raised != assigned[last] {
				res.Steps = append(res.Steps, Step{
					Instr: last, From: assigned[last], To: raised, Slack: true,
				})
				assigned[last] = raised
			}
		}
	}
	return res
}

// recLoads returns the load instructions of the recurrence in ID order.
func recLoads(l *ir.Loop, nodes []int) []int {
	var loads []int
	for _, v := range nodes {
		if l.Instrs[v].IsLoad() {
			loads = append(loads, v)
		}
	}
	sort.Ints(loads)
	return loads
}

// bestStep evaluates the benefit function for every (load, lower latency)
// pair of the recurrence and returns the winning change. loads is the
// recurrence's load list, computed once per recurrence by the caller, and
// floor a lower bound on every II a candidate can reach.
func bestStep(eng *ir.RecEngine, loads []int, ld Ladder, prof map[int]MemProfile, assigned []int, curII, floor int) (Step, bool) {
	best := Step{B: math.Inf(-1)}
	found := false
	for _, m := range loads {
		cur := assigned[m]
		p := prof[m] // zero value: hit rate 0, worst case
		oldStall := ExpectedStall(ld, p, cur)
		// The perturbed II is monotone in the latency and bounded above
		// by curII, so once an ascending candidate leaves the II at
		// curII every larger candidate does too and needs no solve.
		// Ladders are expected ascending but nothing enforces it, so the
		// skip resets whenever a candidate goes out of order.
		newII := -1
		prevLa := -1
		for _, la := range ld {
			if la >= cur {
				continue
			}
			if la < prevLa {
				newII = -1
			}
			prevLa = la
			dStall := ExpectedStall(ld, p, la) - oldStall
			if newII != curII {
				// A candidate whose benefit bound (the II falling to
				// floor) loses to the incumbent cannot win: better
				// compares B first and strictly. Skip its solve; its
				// II is unknown, so the monotone skip resets.
				if found && dStall > 0 && benefit(curII-floor, dStall) < best.B {
					newII = -1
					continue
				}
				newII = eng.IIWithChange(assigned, m, la)
			}
			dII := curII - newII
			b := benefit(dII, dStall)
			if !found || better(b, dII, m, la, best) {
				best = Step{Instr: m, From: cur, To: la, DeltaII: dII, DeltaStall: dStall, B: b}
				found = true
			}
		}
	}
	// Give up when nothing was evaluated (every load at the minimum) or
	// the winner leaves the II unchanged: lowering it would only add
	// stall for no compute gain.
	if !found || best.DeltaII <= 0 {
		return Step{}, false
	}
	return best, true
}

// benefit computes B = ΔII / Δstall; if the denominator is not positive the
// benefit is maximum (paper: "if the denominator is 0, the benefit is
// maximum").
func benefit(dII int, dStall float64) float64 {
	if dStall <= 0 {
		return math.Inf(1)
	}
	return float64(dII) / dStall
}

// better orders candidate steps: higher benefit wins; ties prefer the larger
// II decrease, then the smaller instruction ID, then the larger target
// latency (the least aggressive lowering), for determinism.
func better(b float64, dII, instr, la int, cur Step) bool {
	switch {
	case b != cur.B:
		return b > cur.B
	case dII != cur.DeltaII:
		return dII > cur.DeltaII
	case instr != cur.Instr:
		return instr < cur.Instr
	default:
		return la > cur.To
	}
}

// raiseToTarget finds the largest latency in [assigned[last], maxLat] for
// instruction `last` such that the recurrence II stays ≤ target, one
// FeasibleWithChange query per latency probe.
func raiseToTarget(eng *ir.RecEngine, assigned []int, last, maxLat, target int) int {
	lo, hi := assigned[last], maxLat
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if eng.FeasibleWithChange(assigned, last, mid, target) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
