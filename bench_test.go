package ivliw_test

import (
	"context"
	"fmt"
	"testing"

	"ivliw"
	"ivliw/internal/arch"
	"ivliw/internal/experiments"
	"ivliw/internal/pipeline"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
	"ivliw/sweep"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation section. Each figure benchmark runs the full 14-benchmark
// synthetic Mediabench suite through compilation and cycle-level simulation
// for every variant the figure compares, and reports the headline metric of
// that figure via b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// The absolute cycle counts are not expected to match the paper (the
// workloads are synthetic); the comparisons between bars are.

// BenchmarkTable1 regenerates the benchmark/input table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates the configuration table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure4 regenerates the memory-access classification: 14
// benchmarks × 4 IPBC variants. Reported metric: AMEAN local-hit share of
// the OUF+alignment bar (the paper's headline configuration).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		mean := rows[len(rows)-1]
		b.ReportMetric(mean.Bars[2].Shares[stats.LHit], "localhits/access")
		b.ReportMetric(mean.Bars[2].Shares[stats.LHit]-mean.Bars[0].Shares[stats.LHit], "unroll-gain")
	}
}

// BenchmarkFigure5 regenerates the stall-cause classification (IBC and
// IPBC under selective unrolling).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 14 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFigure6 regenerates stall time by access type for IBC/IPBC with
// and without Attraction Buffers. Reported metrics: the AMEAN normalized
// stall of the two +AB bars (the paper reports 0.66 and 0.71 relative to
// each heuristic's own no-AB stall).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		mean := rows[len(rows)-1]
		b.ReportMetric(mean.Bars[1].Normalized, "IBC+AB/IBC")
		if mean.Bars[2].Normalized > 0 {
			b.ReportMetric(mean.Bars[3].Normalized/mean.Bars[2].Normalized, "IPBC+AB/IPBC")
		}
	}
}

// BenchmarkFigure7 regenerates the workload-balance study.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var ouf float64
		for _, r := range rows {
			ouf += r.OUF
		}
		b.ReportMetric(ouf/float64(len(rows)), "balance-OUF")
	}
}

// BenchmarkFigure8 regenerates the cross-architecture cycle counts.
// Reported metrics: AMEAN normalized cycles of each bar (baseline
// Unified(L=1) = 1.0).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		mean := rows[len(rows)-1]
		for _, bar := range mean.Bars {
			b.ReportMetric(bar.Compute+bar.Stall, bar.Variant)
		}
	}
}

// BenchmarkRunSuite measures full-suite compile+simulate throughput for the
// headline configuration through the parallel harness (the 14 benchmarks
// fan across the worker pool; on one P it measures the serial pipeline).
func BenchmarkRunSuite(b *testing.B) {
	v := experiments.Interleaved("IPBC+AB", ivliw.IPBC, ivliw.Selective, true, true, false)
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunSuite(context.Background(), v)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 14 {
			b.Fatalf("suite returned %d benchmarks", len(out))
		}
	}
}

// BenchmarkCompile measures the compiler pipeline alone (no simulation) on
// every loop of the suite under IPBC + selective unrolling.
func BenchmarkCompile(b *testing.B) {
	spec, _ := workload.ByName("gsmdec")
	v := experiments.Interleaved("IPBC", ivliw.IPBC, ivliw.Selective, true, false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBench(spec, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures compile+simulate throughput per benchmark for
// the headline configuration (interleaved, IPBC, ABs).
func BenchmarkSimulate(b *testing.B) {
	for _, name := range []string{"gsmdec", "jpegenc", "pgpdec"} {
		spec, _ := workload.ByName(name)
		v := experiments.Interleaved("IPBC+AB", ivliw.IPBC, ivliw.Selective, true, true, false)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalCycles()), "cycles")
			}
		})
	}
}

// BenchmarkScheduler times the whole Program.Compile (profiling, chains,
// unrolling, latency assignment, ordering and modulo scheduling) of a loop
// whose 8 loads feed a chain of integer ops, without and with ×N
// unrolling; an ablation of compile
// cost, not a paper figure. The name predates the per-layer benchmarks and
// is kept so BENCH_1–5 stay comparable; sched.Run alone is timed by
// BenchmarkSchedRun in internal/sched.
func BenchmarkScheduler(b *testing.B) {
	for _, unroll := range []ivliw.UnrollMode{ivliw.NoUnroll, ivliw.UnrollxN} {
		b.Run(fmt.Sprintf("unroll=%v", unroll), func(b *testing.B) {
			cfg := ivliw.DefaultConfig()
			lb := ivliw.NewLoop("bench", 256, 1)
			var prev int = -1
			for k := 0; k < 8; k++ {
				ld := lb.Load("ld", ivliw.MemInfo{
					Sym: fmt.Sprintf("a%d", k), Kind: ivliw.Heap,
					Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 2048,
				})
				op := lb.Op("op", ivliw.OpIntALU)
				lb.Flow(ld, op)
				if prev >= 0 {
					lb.Flow(prev, op)
				}
				prev = op
			}
			loop := lb.MustBuild()
			prog, err := ivliw.NewProgram(cfg, []*ivliw.Loop{loop})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prog.Compile(loop, ivliw.CompileOptions{
					Heuristic: ivliw.IPBC, Unroll: unroll,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAttractionBuffers quantifies the Attraction Buffer
// design choice on the chain-heavy benchmarks (DESIGN.md ablation).
func BenchmarkAblationAttractionBuffers(b *testing.B) {
	for _, ab := range []bool{false, true} {
		b.Run(fmt.Sprintf("AB=%v", ab), func(b *testing.B) {
			spec, _ := workload.ByName("pgpdec")
			v := experiments.Interleaved("IBC", ivliw.IBC, ivliw.Selective, true, ab, false)
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StallCycles()), "stallcycles")
			}
		})
	}
}

// BenchmarkAblationAlignment quantifies variable alignment (DESIGN.md
// ablation; the §4.3.4 padding).
func BenchmarkAblationAlignment(b *testing.B) {
	for _, aligned := range []bool{false, true} {
		b.Run(fmt.Sprintf("aligned=%v", aligned), func(b *testing.B) {
			spec, _ := workload.ByName("gsmdec")
			v := experiments.Interleaved("IPBC", ivliw.IPBC, ivliw.OUFUnroll, aligned, false, false)
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.LocalHitRatio(), "localhitratio")
			}
		})
	}
}

// BenchmarkAblationChains quantifies the memory-dependent-chain constraint
// (DESIGN.md ablation; correctness cost of the software memory model).
func BenchmarkAblationChains(b *testing.B) {
	for _, noChains := range []bool{false, true} {
		b.Run(fmt.Sprintf("noChains=%v", noChains), func(b *testing.B) {
			spec, _ := workload.ByName("epicdec")
			v := experiments.Interleaved("IPBC", ivliw.IPBC, ivliw.OUFUnroll, true, false, noChains)
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.LocalHitRatio(), "localhitratio")
			}
		})
	}
}

// BenchmarkAblationLatencyAssignment quantifies the latency-assignment pass
// (DESIGN.md ablation): without it, recurrence-bound loops pay remote-miss
// latencies in their IIs.
func BenchmarkAblationLatencyAssignment(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("disabled=%v", disabled), func(b *testing.B) {
			spec, _ := workload.ByName("g721dec")
			v := experiments.Interleaved("IPBC", ivliw.IPBC, ivliw.Selective, true, false, false)
			v.Opt.NoLatAssign = disabled
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalCycles()), "cycles")
			}
		})
	}
}

// BenchmarkAblationOrdering quantifies the swing modulo scheduling order
// (DESIGN.md ablation) against naive instruction order.
func BenchmarkAblationOrdering(b *testing.B) {
	for _, naive := range []bool{false, true} {
		b.Run(fmt.Sprintf("naive=%v", naive), func(b *testing.B) {
			spec, _ := workload.ByName("rasta")
			v := experiments.Interleaved("IPBC", ivliw.IPBC, ivliw.Selective, true, false, false)
			v.Opt.NaiveOrder = naive
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBench(spec, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalCycles()), "cycles")
			}
		})
	}
}

// BenchmarkInterleaveSweep regenerates the §5.1 future-work interleaving
// study (see examples/interleave-sweep).
func BenchmarkInterleaveSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InterleaveSweep(context.Background(), []string{"gsmdec", "jpegenc"}, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("bad sweep")
		}
	}
}

// sweepBenchSpec is the benchmark grid shared by the sweep benchmarks: the
// AB and MSHR axes are simulate-only — four machine points per compile key.
func sweepBenchSpec(memory int) sweep.Spec {
	return sweep.Spec{
		Grid: sweep.Grid{
			Clusters:  []int{2, 4},
			ABEntries: []int{0, 16},
			MSHRs:     []int{0, 8},
		},
		Workloads: sweep.Workloads{Bench: []string{"gsmdec", "g721dec"}},
		Compile:   sweep.Compile{Heuristic: "IPBC", Unroll: "selective"},
		Store:     sweep.Store{Memory: memory},
	}
}

// benchmarkSweepCache measures design-sweep throughput (cells/s) with the
// in-memory compiled-schedule cache at the given capacity (< 0 = every cell
// compiles from scratch, the pre-pipeline behaviour).
func benchmarkSweepCache(b *testing.B, memory int) {
	spec := sweepBenchSpec(memory)
	const cells = 16 // 8 points × 2 benchmarks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows sweep.Collector
		st, err := sweep.Run(context.Background(), spec, &rows)
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != cells || len(rows.Rows) != cells {
			b.Fatalf("%d rows, want %d", len(rows.Rows), cells)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSweepCompileCacheOn: the staged pipeline sharing schedule
// artifacts across the simulate-only axes.
func BenchmarkSweepCompileCacheOn(b *testing.B) {
	benchmarkSweepCache(b, 0) // 0 = the default capacity
}

// BenchmarkSweepCompileCacheOff: every cell recompiles (the reference the
// byte-identity gate compares against).
func BenchmarkSweepCompileCacheOff(b *testing.B) {
	benchmarkSweepCache(b, -1)
}

// benchmarkSweepDisk measures the same grid against the persistent artifact
// store, with the in-memory tier disabled so every cell hits the disk path.
func benchmarkSweepDisk(b *testing.B, warm bool) {
	spec := sweepBenchSpec(-1)
	spec.Store.Dir = b.TempDir()
	const cells = 16
	if warm {
		if _, err := sweep.Run(context.Background(), spec, sweep.Func(func(sweep.Row) error { return nil })); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			spec.Store.Dir = b.TempDir()
			b.StartTimer()
		}
		st, err := sweep.Run(context.Background(), spec, sweep.Func(func(sweep.Row) error { return nil }))
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != cells {
			b.Fatalf("%d rows, want %d", st.Rows, cells)
		}
		if warm && st.DiskMisses != 0 {
			b.Fatalf("warm store compiled %d artifacts", st.DiskMisses)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSweepDiskStoreCold: first run against an empty artifact
// directory (every key compiles and persists).
func BenchmarkSweepDiskStoreCold(b *testing.B) { benchmarkSweepDisk(b, false) }

// BenchmarkSweepDiskStoreWarm: repeated run against a populated artifact
// directory (every key loads from disk; nothing compiles).
func BenchmarkSweepDiskStoreWarm(b *testing.B) { benchmarkSweepDisk(b, true) }

// benchmarkSweepBatch measures batched-simulation sweep throughput on a grid
// carved to exactly `siblings` simulate-only lanes per compile key (the AB ×
// MSHR axes). The artifact store is a pre-warmed disk directory so compile
// cost amortizes out and the measurement isolates the simulate path — the
// part batching changes. simBatch 0 is the PR 6 code path (cell-at-a-time),
// the baseline the scaling curve is read against; with batching on, the
// cells/s curve is superlinear in sibling count because the event-merge
// front half is paid once per batch instead of once per cell.
func benchmarkSweepBatch(b *testing.B, siblings, simBatch int) {
	spec := sweepBenchSpec(0)
	switch siblings {
	case 1:
		spec.Grid.ABEntries, spec.Grid.MSHRs = []int{16}, []int{8}
	case 2:
		spec.Grid.ABEntries, spec.Grid.MSHRs = []int{0, 16}, []int{8}
	case 4:
		// sweepBenchSpec's own 2 AB × 2 MSHR axes.
	case 8:
		spec.Grid.MSHRs = []int{0, 2, 4, 8}
	default:
		b.Fatalf("no grid carve for %d siblings", siblings)
	}
	spec.Store.Dir = b.TempDir()
	if _, err := sweep.Run(context.Background(), spec, sweep.Func(func(sweep.Row) error { return nil })); err != nil {
		b.Fatal(err)
	}
	spec.SimBatch = simBatch
	// One worker: the measurement is serial simulate throughput, the thing
	// batching changes, not scheduling luck on a small grid.
	spec.Workers = 1
	cells := 2 * 2 * siblings // clusters × benchmarks × simulate-only siblings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := sweep.Run(context.Background(), spec, sweep.Func(func(sweep.Row) error { return nil }))
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != cells {
			b.Fatalf("%d rows, want %d", st.Rows, cells)
		}
		if simBatch > 1 && st.SimCells != int64(cells) {
			b.Fatalf("only %d of %d cells went through batches", st.SimCells, cells)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkSweepBatch1(b *testing.B) { benchmarkSweepBatch(b, 1, 8) }
func BenchmarkSweepBatch2(b *testing.B) { benchmarkSweepBatch(b, 2, 8) }
func BenchmarkSweepBatch4(b *testing.B) { benchmarkSweepBatch(b, 4, 8) }
func BenchmarkSweepBatch8(b *testing.B) { benchmarkSweepBatch(b, 8, 8) }

// BenchmarkSweepBatch4Off: the PR 6 baseline — the same 4-sibling grid and
// warm store with batching off — that BenchmarkSweepBatch4 is compared to.
func BenchmarkSweepBatch4Off(b *testing.B) { benchmarkSweepBatch(b, 4, 0) }

// BenchmarkSimulateBatch isolates the batched simulate back end: one fixed
// compiled artifact driven across 1–8 sibling lanes in a single pass.
// allocs/op is reported because the per-lane state is set up once per batch
// and the merged event loop must not allocate per cell: allocations grow
// with the lane count, never with the event count.
func BenchmarkSimulateBatch(b *testing.B) {
	spec, _ := workload.ByName("gsmdec")
	v := experiments.Interleaved("IPBC+AB", ivliw.IPBC, ivliw.Selective, true, true, false)
	art, err := pipeline.Compile(v.CompileSpec(spec))
	if err != nil {
		b.Fatal(err)
	}
	// Eight simulate-only siblings of the headline config: AB geometry ×
	// MSHR depth, all sharing the artifact's compile key.
	var cfgs []arch.Config
	for _, entries := range []int{16, 32} {
		for _, mshrs := range []int{0, 2, 4, 8} {
			c := v.Cfg
			c.ABEntries, c.MSHRs = entries, mshrs
			cfgs = append(cfgs, c)
		}
	}
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outs, err := pipeline.SimulateBatch(art, spec, cfgs[:lanes], v.Aligned)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != lanes {
					b.Fatalf("%d lanes out, want %d", len(outs), lanes)
				}
			}
			b.ReportMetric(float64(lanes*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
