// Command taglesssim runs one simulation: a workload (SPEC program, MIX,
// or PARSEC program) on one DRAM-cache organization, and prints the full
// measured result.
//
//	taglesssim -design cTLB -workload sphinx3
//	taglesssim -design SRAM -workload MIX5 -measure 5000000
//	taglesssim -design cTLB -workload GemsFDTD -nc 32 -policy LRU
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"taglessdram"
	"taglessdram/internal/prof"
	"taglessdram/internal/textplot"
)

func main() {
	o := taglessdram.DefaultOptions()
	o.EpochRefs = 2000
	o.RegisterFlags(flag.CommandLine)
	flag.UintVar(&o.Shift, "shift", o.Shift, "capacity scale: divide sizes by 1<<shift")
	flag.Uint64Var(&o.Warmup, "warmup", o.Warmup, "warm-up instructions per core")
	flag.Uint64Var(&o.Measure, "measure", o.Measure, "measured instructions per core")
	flag.Int64Var(&o.CacheMB, "cache-mb", o.CacheMB, "override scaled cache capacity in MB (0 = default)")
	flag.TextVar(&o.Policy, "policy", o.Policy, "tagless victim `policy`: FIFO | LRU | CLOCK (any case)")
	flag.IntVar(&o.NCAccessThreshold, "nc", o.NCAccessThreshold, "non-cacheable threshold (32 enables the Section 5.4 policy)")
	flag.IntVar(&o.HotFilterThreshold, "hotfilter", o.HotFilterThreshold, "online hot-page filter threshold (0 = off)")
	flag.BoolVar(&o.SharedAliasTable, "alias", o.SharedAliasTable, "enable the Section 6 shared-page alias table")
	flag.BoolVar(&o.Superpages, "superpages", o.Superpages, "map application memory as 2MB-equivalent superpages")
	flag.BoolVar(&o.Refresh, "refresh", o.Refresh, "model DRAM refresh blackouts")
	flag.IntVar(&o.TraceEventLimit, "trace-max", o.TraceEventLimit, "trace window size in events (0 = default)")
	flag.StringVar(&o.CheckpointSave, "checkpoint-save", o.CheckpointSave, "write the post-warmup machine state to this file before measuring")
	flag.StringVar(&o.CheckpointLoad, "checkpoint-load", o.CheckpointLoad, "restore post-warmup state from this file instead of warming up (refused unless config and workload match)")
	var sample taglessdram.SampleSpec
	flag.Uint64Var(&sample.WindowRefs, "sample-window", 0, "SMARTS sampling: cycle-accurate window length in trace references (0 = full cycle-accurate run)")
	flag.Uint64Var(&sample.PeriodRefs, "sample-period", 0, "SMARTS sampling: references per period; the period minus the window fast-forwards functionally")
	flag.Uint64Var(&sample.WarmRefs, "sample-warm", 0, "SMARTS sampling: detailed-warming references before each window (accurate but unmeasured)")
	var (
		design   = flag.String("design", "cTLB", "NoL3 | BI | SRAM | cTLB | Ideal | Alloy | Banshee")
		workload = flag.String("workload", "sphinx3", "SPEC program, MIX1-MIX8, or PARSEC program")
		list     = flag.Bool("list", false, "list workloads and exit")
		prog     = flag.Bool("progress", false, "print a wall-clock throughput summary and epoch sparklines to stderr")
		metrics  = flag.String("metrics-json", "", "write the full metric registry and epoch series as JSON lines to this file")
		latHist  = flag.Bool("lat-hist", false, "print the latency attribution breakdown, tail histograms and per-bank DRAM telemetry")
		selfchk  = flag.Bool("selfcheck", false, "verify cycle-accounting conservation and (cTLB/SRAM) the Equations 1-5 closed forms, exit nonzero on failure")
		traceOut = flag.String("trace-events", "", "write a Chrome trace_event JSON (chrome://tracing) of the first kernel events to this file")
		rcache   = flag.String("result-cache", "", "persistent content-addressed result cache directory: an identical completed run is replayed byte-identically instead of re-simulated")
	)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	// A single run has no queue to drain: Ctrl-C flushes any profiles and
	// exits with the conventional interrupt status.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "taglesssim: interrupted")
		stopProf()
		os.Exit(130)
	}()

	if *list {
		fmt.Println("SPEC (single-programmed):", strings.Join(taglessdram.SPECWorkloads(), " "))
		fmt.Println("Mixes (multi-programmed):", strings.Join(taglessdram.MixWorkloads(), " "))
		fmt.Println("PARSEC (multi-threaded): ", strings.Join(taglessdram.PARSECWorkloads(), " "))
		return
	}

	d, err := taglessdram.ParseDesign(*design)
	if err != nil {
		fatal(err)
	}
	if *prog {
		o.Progress = func(p taglessdram.SweepProgress) {
			fmt.Fprintf(os.Stderr, "throughput:      %s (%s wall)\n", p.Summary, p.Elapsed.Round(time.Millisecond))
		}
	}
	if sample.WindowRefs > 0 || sample.PeriodRefs > 0 {
		o.Sample = &sample
	}
	var store *taglessdram.ResultCache
	if *rcache != "" {
		store, err = taglessdram.OpenResultCache(*rcache)
		if err != nil {
			fatal(err)
		}
		o.ResultCache = store
	}
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		o.TraceEvents = traceFile
	}
	if err := o.Validate(); err != nil {
		fatal(err)
	}

	r, err := taglessdram.Run(d, *workload, o)
	if err != nil {
		fatal(err)
	}
	if warn := taglessdram.EpochDropWarning(r); warn != "" {
		fmt.Fprintln(os.Stderr, "taglesssim: warning:", warn)
	}
	if store != nil {
		// Stderr, not stdout: the printed result must stay byte-identical
		// whether it was simulated or replayed.
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "result cache:    hits=%d misses=%d stored=%d evicted=%d (%s)\n",
			st.Hits, st.Misses, st.Stored, st.Evicted, store.Dir())
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		if err := taglessdram.WriteMetricsJSON(f, r); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("workload:        %s on %v\n", r.Workload, r.Design)
	fmt.Printf("instructions:    %d (measured)\n", r.Instructions)
	fmt.Printf("cycles:          %d (%.3f ms simulated)\n", r.Cycles, r.Seconds*1e3)
	fmt.Printf("IPC:             %.3f (per core: %s)\n", r.IPC, fmtIPCs(r.PerCoreIPC))
	fmt.Printf("L3 accesses:     %d (hit rate %.1f%%, avg latency %.1f cycles)\n",
		r.L3Accesses, r.L3HitRate*100, r.AvgL3Latency)
	fmt.Printf("TLB:             %d lookups, %.3f%% miss\n", r.TLBLookups, r.TLBMissRate*100)
	fmt.Printf("DRAM row hits:   in-package %.1f%%, off-package %.1f%%\n",
		r.InPkgRowHitRate*100, r.OffPkgRowHitRate*100)
	fmt.Printf("traffic:         in-package %d B, off-package %d B\n", r.InPkgBytes, r.OffPkgBytes)
	fmt.Printf("energy:          %s\n", r.Energy)
	fmt.Printf("EDP:             %.4g J*s\n", r.EDPJs)
	if s := r.Sampled; s != nil {
		fmt.Printf("sampled:         %d windows of %d refs (period %d): IPC %.3f ± %.3f (95%% CI), %d refs accurate + %d fast-forwarded\n",
			s.Windows, s.WindowRefs, s.PeriodRefs, s.IPC, s.IPCCI95, s.MeasuredRefs, s.FastRefs)
	}
	if r.Design == taglessdram.Tagless {
		c := r.Ctrl
		fmt.Printf("cTLB handler:    %d walks: %d victim hits, %d cold fills, %d NC, %d pending waits, %d alias hits\n",
			c.Walks, c.VictimHits, c.ColdFills, c.NonCacheable, c.PendingWaits, c.AliasHits)
		fmt.Printf("eviction daemon: %d evictions (%d dirty write-backs, %d rescues, %d forced on access path, %d shootdowns)\n",
			c.Evictions, c.Writebacks, c.Rescues, c.SyncEvictions, c.Shootdowns)
		if r.NCAccesses > 0 {
			fmt.Printf("NC accesses:     %d\n", r.NCAccesses)
		}
	}
	if *latHist {
		printLatency(r)
	}
	if *selfchk {
		if err := taglessdram.CheckLatencyAttribution(r); err != nil {
			fatal(err)
		}
		fmt.Printf("selfcheck:       conservation exact over %d L3 + %d handler commits\n",
			r.Latency.L3.Commits, r.Latency.Handler.Commits)
		// The Equations 1-5 closed forms take a single MissPenalty_TLB
		// term, which the nested walk's split guest/host attribution
		// deliberately does not produce; conservation above is the
		// universal gate.
		if o.WalkModel != "nested" {
			if err := taglessdram.CheckLatencyModel(r, 0.02); err != nil {
				fatal(err)
			}
			if r.Design == taglessdram.Tagless || r.Design == taglessdram.SRAMTag {
				fmt.Printf("selfcheck:       Equations 1-5 reproduce measured latency within 2%%\n")
			}
		}
	}
	if *prog && len(r.Epochs) > 0 {
		printSparklines(r)
	}
}

// printLatency renders the cycle-accounting surface: the per-component
// stall breakdown for both scopes, the L3/handler latency histograms, and
// the per-bank DRAM telemetry.
func printLatency(r *taglessdram.Result) {
	names := taglessdram.LatencyComponentNames()
	s := &r.Latency
	fmt.Printf("\nlatency attribution (stall cycles, measured window)\n")
	fmt.Printf("  %-15s %15s %15s %12s\n", "component", "L3 scope", "handler scope", "background")
	for i, n := range names {
		if s.L3.Cycles[i] == 0 && s.Handler.Cycles[i] == 0 && s.Bg.Cycles[i] == 0 {
			continue
		}
		fmt.Printf("  %-15s %15d %15d %12d\n", n, s.L3.Cycles[i], s.Handler.Cycles[i], s.Bg.Cycles[i])
	}
	fmt.Printf("  %-15s %15d %15d %12d  (commits %d/%d, residue %d/%d)\n",
		"total", s.L3.Measured, s.Handler.Measured, s.Bg.Total(),
		s.L3.Commits, s.Handler.Commits, s.L3.Residue, s.Handler.Residue)

	fmt.Println()
	fmt.Print(textplot.Histogram(
		fmt.Sprintf("L3 access latency (cycles): p50 %.0f p99 %.0f p99.9 %.0f max %d",
			s.L3Lat.Quantile(50), s.L3Lat.Quantile(99), s.L3Lat.Quantile(99.9), s.L3Lat.Max()),
		histBars(s.L3Lat.Rows()), 40))
	if s.HandlerLat.Count() > 0 {
		fmt.Println()
		fmt.Print(textplot.Histogram(
			fmt.Sprintf("TLB-miss handler latency (cycles): p50 %.0f p99 %.0f max %d",
				s.HandlerLat.Quantile(50), s.HandlerLat.Quantile(99), s.HandlerLat.Max()),
			histBars(s.HandlerLat.Rows()), 40))
	}

	printBanks := func(name string, banks []taglessdram.BankStat, busy uint64, channels int) {
		if len(banks) == 0 {
			return
		}
		var hits, confls, maxBusy uint64
		for _, b := range banks {
			hits += b.Hits
			confls += b.Confls
			if b.BusyTicks > maxBusy {
				maxBusy = b.BusyTicks
			}
		}
		fmt.Printf("  %-11s %3d banks: %d row hits, %d row conflicts, hottest bank busy %.1f%%, bus busy %.1f%%\n",
			name, len(banks), hits, confls,
			pct(maxBusy, r.Cycles), pct(busy, r.Cycles*uint64(max(channels, 1))))
	}
	fmt.Printf("\nDRAM telemetry (measured window)\n")
	printBanks("in-package", r.InPkgBankStats, r.InPkgBusBusy, r.InPkgChannels)
	printBanks("off-package", r.OffPkgBankStats, r.OffPkgBusBusy, r.OffPkgChannels)
}

func histBars(rows []taglessdram.BucketRow) []textplot.HistBar {
	out := make([]textplot.HistBar, len(rows))
	for i, b := range rows {
		out[i] = textplot.HistBar{Label: fmt.Sprintf("[%d,%d]", b.Lo, b.Hi), Count: b.Count}
	}
	return out
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

// printSparklines renders the captured epoch series as terminal-width
// sparklines on stderr, next to the throughput summary they accompany.
func printSparklines(r *taglessdram.Result) {
	const width = 60
	series := []struct {
		name string
		get  func(e taglessdram.Epoch) float64
	}{
		{"IPC", func(e taglessdram.Epoch) float64 { return e.IPC }},
		{"L3 hit rate", func(e taglessdram.Epoch) float64 { return e.L3HitRate }},
		{"cTLB miss rate", func(e taglessdram.Epoch) float64 { return e.TLBMissRate }},
		{"off-pkg bytes", func(e taglessdram.Epoch) float64 { return float64(e.OffPkgBytes) }},
		{"L3 p99 lat", func(e taglessdram.Epoch) float64 { return e.L3LatP99 }},
		{"bus util", func(e taglessdram.Epoch) float64 { return math.Max(e.InPkgBusUtil, e.OffPkgBusUtil) }},
	}
	if r.Design == taglessdram.Tagless {
		series = append(series, struct {
			name string
			get  func(e taglessdram.Epoch) float64
		}{"free blocks", func(e taglessdram.Epoch) float64 { return float64(e.FreeBlocks) }})
	}
	fmt.Fprintf(os.Stderr, "epochs:          %d × %d refs", len(r.Epochs), r.Epochs[0].Refs)
	if r.EpochsDropped > 0 {
		fmt.Fprintf(os.Stderr, " (%d older epochs dropped)", r.EpochsDropped)
	}
	fmt.Fprintln(os.Stderr)
	for _, s := range series {
		xs := make([]float64, len(r.Epochs))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, e := range r.Epochs {
			xs[i] = s.get(e)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		fmt.Fprintf(os.Stderr, "  %-15s %s  [%.3g, %.3g]\n",
			s.name, textplot.Sparkline(xs, width), lo, hi)
	}
}

func fmtIPCs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taglesssim:", err)
	os.Exit(1)
}
