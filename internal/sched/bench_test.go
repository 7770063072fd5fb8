package sched_test

import (
	"fmt"
	"testing"

	"ivliw/internal/sched"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// BenchmarkSchedRun times sched.Run alone on epicdec's 19-memory-op chain
// loop unrolled ×4 under IPBC, with the latency assignment and node order
// computed once outside the timed loop.
func BenchmarkSchedRun(b *testing.B) {
	spec, ok := workload.ByName("epicdec")
	if !ok {
		b.Fatal("epicdec missing")
	}
	ul := unroll.Unroll(spec.Loops[0].Loop, 4)
	for _, clusters := range []int{2, 8} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			cfg := clusterConfig(clusters)
			g, assigned, order, cs := compileInputs(ul, cfg)
			opt := sched.Options{
				Heuristic: sched.IPBC,
				ChainOf:   cs.ChainOf,
				Preferred: preferred(cs, clusters, false),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(ul, g, cfg, assigned, order, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
