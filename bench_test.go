package taglessdram

// One benchmark per table and figure of the paper's evaluation section.
// Each iteration regenerates the artifact at a reduced instruction budget
// and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the whole reproduction. cmd/experiments produces the same rows
// at full budget with markdown formatting.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// benchOpts uses the calibrated full budgets; one benchmark iteration is a
// few seconds of wall time.
func benchOpts() Options {
	o := DefaultOptions()
	o.Warmup, o.Measure = 3_000_000, 3_000_000
	return o
}

// BenchmarkTable1AccessCases regenerates Table 1: the four (TLB, cache)
// access cases and their measured handler costs.
func BenchmarkTable1AccessCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable1(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanCycles, fmt.Sprintf("cyc/%s-%s", r.TLB, r.Cache))
		}
	}
}

// BenchmarkTable2DesignComparison regenerates Table 2: the measured
// design-requirement comparison of the SRAM-tag and tagless caches.
func BenchmarkTable2DesignComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2(context.Background(), benchOpts(), "MIX3")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.L3HitRate*100, fmt.Sprintf("hit%%/%v", r.Design))
			b.ReportMetric(r.AvgL3Latency, fmt.Sprintf("L3cyc/%v", r.Design))
			b.ReportMetric(r.TagStorageMB, fmt.Sprintf("tagMB/%v", r.Design))
		}
	}
}

// BenchmarkTable6TagParameters regenerates Table 6: SRAM tag size and
// latency versus cache size, from the CACTI-derived model.
func BenchmarkTable6TagParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := RunTable6()
		for _, r := range rows {
			b.ReportMetric(float64(r.LatencyCyc), fmt.Sprintf("cyc/%dMB", r.CacheSize>>20))
		}
	}
}

// BenchmarkFigure7SingleProgrammed regenerates Figure 7 over a
// representative subset of the SPEC programs (the full sweep is in
// cmd/experiments) and reports geomean normalized IPC per design.
func BenchmarkFigure7SingleProgrammed(b *testing.B) {
	programs := []string{"sphinx3", "libquantum", "GemsFDTD"}
	for i := 0; i < b.N; i++ {
		var rows []DesignRow
		for _, wl := range programs {
			r, err := runAcrossDesigns(context.Background(), wl, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
		for _, d := range Designs() {
			b.ReportMetric(GeoMeanNormIPC(rows, d), fmt.Sprintf("normIPC/%v", d))
			b.ReportMetric(GeoMeanNormEDP(rows, d), fmt.Sprintf("normEDP/%v", d))
		}
	}
}

// BenchmarkFigure8L3Latency regenerates Figure 8: the average L3 access
// latency of the SRAM-tag versus tagless cache.
func BenchmarkFigure8L3Latency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		for _, wl := range []string{"sphinx3", "libquantum", "GemsFDTD"} {
			rs, err := Run(SRAMTag, wl, o)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := Run(Tagless, wl, o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rs.AvgL3Latency, "SRAMcyc/"+wl)
			b.ReportMetric(rt.AvgL3Latency, "cTLBcyc/"+wl)
		}
	}
}

// BenchmarkFigure9MultiProgrammed regenerates Figure 9 on two mixes.
func BenchmarkFigure9MultiProgrammed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []DesignRow
		for _, wl := range []string{"MIX1", "MIX5"} {
			r, err := runAcrossDesigns(context.Background(), wl, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
		for _, d := range Designs() {
			b.ReportMetric(GeoMeanNormIPC(rows, d), fmt.Sprintf("normIPC/%v", d))
		}
	}
}

// BenchmarkFigure10CacheSize regenerates Figure 10: the DRAM-cache size
// sweep (256MB/512MB/1GB at paper scale) normalized to bank interleaving.
func BenchmarkFigure10CacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFigure10(context.Background(), benchOpts(), []string{"MIX5"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.CTLBNorm, fmt.Sprintf("cTLB-vs-BI/%dMB", r.CacheMB<<6))
			b.ReportMetric(r.SRAMNorm, fmt.Sprintf("SRAM-vs-BI/%dMB", r.CacheMB<<6))
		}
	}
}

// BenchmarkFigure11Replacement regenerates Figure 11: FIFO versus LRU
// victim selection for the tagless cache.
func BenchmarkFigure11Replacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunFigure11(context.Background(), benchOpts(), []string{"MIX1", "MIX5"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.LRUGain*100, "LRUgain%/"+r.Workload)
		}
	}
}

// BenchmarkFigure12MultiThreaded regenerates Figure 12 on the PARSEC
// workloads with the strongest published signal.
func BenchmarkFigure12MultiThreaded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []DesignRow
		for _, wl := range []string{"streamcluster", "swaptions"} {
			r, err := runAcrossDesigns(context.Background(), wl, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
		for _, r := range rows {
			if r.Design == Tagless {
				b.ReportMetric(r.NormIPC, "normIPC/"+r.Workload)
			}
		}
	}
}

// BenchmarkFigure13NonCacheable regenerates Figure 13: the non-cacheable
// page case study on GemsFDTD.
func BenchmarkFigure13NonCacheable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := RunFigure13(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.GainPC, "NCgain%")
	}
}

// BenchmarkAMATModel cross-checks the Equations 1–5 closed forms against
// the simulator.
func BenchmarkAMATModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunAMATCheck(context.Background(), benchOpts(), []string{"sphinx3"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimGap, "simGapCyc/"+r.Workload)
			b.ReportMetric(r.ModelGap, "modelGapCyc/"+r.Workload)
		}
	}
}

// BenchmarkAblationAsyncEviction quantifies the free-queue design choice:
// asynchronous eviction versus write-backs on the access path.
func BenchmarkAblationAsyncEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.CacheMB = 2 // force eviction pressure
		rAsync, err := Run(Tagless, "milc", o)
		if err != nil {
			b.Fatal(err)
		}
		o.SynchronousEviction = true
		rSync, err := Run(Tagless, "milc", o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rAsync.IPC, "IPC/async")
		b.ReportMetric(rSync.IPC, "IPC/sync")
	}
}

// BenchmarkAblationCachedGIPT quantifies the conservative GIPT-update cost
// (two off-package writes) against an MMU-cached GIPT.
func BenchmarkAblationCachedGIPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		rCons, err := Run(Tagless, "GemsFDTD", o)
		if err != nil {
			b.Fatal(err)
		}
		o.CachedGIPT = true
		rCached, err := Run(Tagless, "GemsFDTD", o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rCons.IPC, "IPC/conservative")
		b.ReportMetric(rCached.IPC, "IPC/cachedGIPT")
	}
}

// BenchmarkAblationAlpha sweeps the free-block pool depth (the paper sets
// α=1 following its heterogeneous-memory citation).
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alpha := range []int{1, 8, 64} {
			o := benchOpts()
			o.CacheMB = 2 // eviction pressure so α matters
			o.Alpha = alpha
			r, err := Run(Tagless, "milc", o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.IPC, fmt.Sprintf("IPC/alpha=%d", alpha))
		}
	}
}

// BenchmarkAblationRefresh measures the cost of DRAM refresh blackouts,
// which the paper's Table 4 leaves unmodeled.
func BenchmarkAblationRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		r0, err := Run(Tagless, "sphinx3", o)
		if err != nil {
			b.Fatal(err)
		}
		o.Refresh = true
		r1, err := Run(Tagless, "sphinx3", o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r0.IPC, "IPC/no-refresh")
		b.ReportMetric(r1.IPC, "IPC/refresh")
	}
}

// BenchmarkExtensionSuperpages regenerates the Section 6 superpage study.
func BenchmarkExtensionSuperpages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunSuperpages(context.Background(), benchOpts(), []string{"lbm", "GemsFDTD"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.IPC, fmt.Sprintf("IPC/%s-%s", r.Workload, r.Config[:3]))
		}
	}
}

// BenchmarkExtensionSharedPages regenerates the Section 6 shared-page study.
func BenchmarkExtensionSharedPages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunSharedPages(context.Background(), benchOpts(), "MIX1", 0.15)
		if err != nil {
			b.Fatal(err)
		}
		for i, r := range rows {
			b.ReportMetric(r.IPC, fmt.Sprintf("IPC/cfg%d", i))
		}
	}
}

// BenchmarkExtensionTLBReach regenerates the victim-cache reach study.
func BenchmarkExtensionTLBReach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTLBReach(context.Background(), benchOpts(), "mcf", []int{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.VictimHitFrac*100, fmt.Sprintf("victim%%/tlb=%d", r.L2TLBEntries))
		}
	}
}

// BenchmarkAblationMLP sweeps the per-core MSHR window: the memory-level
// parallelism available to hide miss latency.
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mshrs := range []int{2, 8, 32} {
			o := benchOpts()
			o.MSHRs = mshrs
			r, err := Run(NoL3, "milc", o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.IPC, fmt.Sprintf("IPC/mshrs=%d", mshrs))
		}
	}
}

// BenchmarkAblationMemoryWalk compares the paper-style fixed walk cost
// against the memory-backed four-level walk model (pwc).
func BenchmarkAblationMemoryWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		r0, err := Run(Tagless, "mcf", o)
		if err != nil {
			b.Fatal(err)
		}
		o.WalkModel = "pwc"
		r1, err := Run(Tagless, "mcf", o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r0.IPC, "IPC/fixed-walk")
		b.ReportMetric(r1.IPC, "IPC/memory-walk")
	}
}

// BenchmarkSweepParallelVsSerial measures the sweep engine on a 10-job
// design grid at -j 1/2/4, reporting jobs/sec and the speedup over the
// serial path (1.0 by construction for j=1; near-linear on multicore
// hardware, ~1.0 on a single-CPU runner). Parallel results are
// bit-identical to serial ones — see TestParallelSweepMatchesSerial.
func BenchmarkSweepParallelVsSerial(b *testing.B) {
	o := DefaultOptions()
	o.Warmup, o.Measure = 100_000, 100_000
	var jobs []Job
	for _, wl := range []string{"sphinx3", "libquantum"} {
		for _, d := range Designs() {
			jobs = append(jobs, Job{Design: d, Workload: wl, Options: o})
		}
	}
	var serialPer time.Duration
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(context.Background(), jobs, w); err != nil {
					b.Fatal(err)
				}
			}
			per := b.Elapsed() / time.Duration(b.N)
			if w == 1 {
				serialPer = per
			}
			b.ReportMetric(float64(len(jobs))/per.Seconds(), "jobs/s")
			if serialPer > 0 && per > 0 {
				b.ReportMetric(serialPer.Seconds()/per.Seconds(), "speedup-vs-j1")
			}
		})
	}
}

// BenchmarkSingleRun is the allocation and latency baseline for one
// isolated simulation — the unit of work every sweep job performs. Run
// with -benchmem to track the per-job allocation footprint.
func BenchmarkSingleRun(b *testing.B) {
	o := DefaultOptions()
	o.Warmup, o.Measure = 100_000, 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Tagless, "sphinx3", o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per second of wall time), the engineering metric for the
// substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	o := benchOpts()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		r, err := Run(Tagless, "sphinx3", o)
		if err != nil {
			b.Fatal(err)
		}
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
