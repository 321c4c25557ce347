// Command benchstep meters the steady-state per-reference simulation
// step for every L3 design and emits BENCH_step.json. It is the CI-facing
// form of BenchmarkMachineStep: the same rig (64×-scaled default machine,
// libquantum, warmed past fill traffic), but with a fixed reference count
// per repetition so runtime is predictable, and best-of-N timing so the
// headline ns/ref number is robust to scheduler noise.
//
// Usage:
//
//	go run ./cmd/benchstep -o BENCH_step.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"taglessdram"
	"taglessdram/internal/config"
	"taglessdram/internal/system"
)

type designReport struct {
	Design       string  `json:"design"`
	NsPerRef     float64 `json:"ns_per_ref"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
	// The functional fast-forward path, metered interleaved with the
	// accurate path in the same process so the speedup ratio compares
	// like with like (same machine state, same load, same GC pressure).
	FFNsPerRef     float64 `json:"ff_ns_per_ref"`
	FFAllocsPerRef float64 `json:"ff_allocs_per_ref"`
	FFSpeedup      float64 `json:"ff_speedup"`
}

// walkReport meters the Tagless step under one page-table-walk model;
// the fixed row is the default path and must stay allocation-free.
type walkReport struct {
	Walk         string  `json:"walk"`
	Design       string  `json:"design"`
	NsPerRef     float64 `json:"ns_per_ref"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
}

type report struct {
	Tool       string         `json:"tool"`
	GoVersion  string         `json:"go_version"`
	RefsPerRep int            `json:"refs_per_rep"`
	Reps       int            `json:"reps"`
	Note       string         `json:"note"`
	Designs    []designReport `json:"designs"`
	// WalkModels breaks the cTLB step cost down by walk model: "fixed"
	// is the default scalar-latency path, "pwc" adds the simulated page
	// walk cache, "nested" the guest->host 2D walk.
	WalkModels []walkReport `json:"walk_models"`
	// Cache is present when -cache-stats is set: the result cache's
	// cold-store vs warm-replay timing for one reference run.
	Cache *cacheReport `json:"result_cache,omitempty"`
}

// cacheReport meters the result cache end to end: one cold Run that
// simulates and stores, then best-of-reps warm Runs replaying the entry.
type cacheReport struct {
	Workload string  `json:"workload"`
	Design   string  `json:"design"`
	Refs     uint64  `json:"refs"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Stored   uint64  `json:"stored"`
	ColdMs   float64 `json:"cold_ms"`
	WarmMs   float64 `json:"warm_ms"`
	Speedup  float64 `json:"speedup"`
}

// meterCache times a cold (simulate + store) vs warm (replay) Run of the
// benchmark rig's workload against a throwaway store.
func meterCache(reps int) (*cacheReport, error) {
	dir, err := os.MkdirTemp("", "benchstep-rcache-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := taglessdram.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	o := taglessdram.DefaultOptions()
	o.Warmup, o.Measure = 200_000, 200_000
	o.ResultCache = store

	start := time.Now()
	r, err := taglessdram.Run(taglessdram.Tagless, "libquantum", o)
	if err != nil {
		return nil, err
	}
	cold := time.Since(start)

	warm := time.Duration(0)
	for rep := 0; rep < reps; rep++ {
		start = time.Now()
		if _, err := taglessdram.Run(taglessdram.Tagless, "libquantum", o); err != nil {
			return nil, err
		}
		if d := time.Since(start); rep == 0 || d < warm {
			warm = d
		}
	}
	st := store.Stats()
	cr := &cacheReport{
		Workload: "libquantum",
		Design:   taglessdram.Tagless.String(),
		Refs:     r.References,
		Hits:     st.Hits,
		Misses:   st.Misses,
		Stored:   st.Stored,
		ColdMs:   float64(cold.Nanoseconds()) / 1e6,
		WarmMs:   float64(warm.Nanoseconds()) / 1e6,
	}
	if warm > 0 {
		cr.Speedup = float64(cold) / float64(warm)
	}
	return cr, nil
}

// latChunks is how many timing chunks each repetition is split into for
// the step-cost distribution; the tail report needs enough chunks that
// p99 is a real sample, and each chunk long enough to amortize the
// clock reads.
const latChunks = 64

type latDesignReport struct {
	Design    string  `json:"design"`
	P50NsRef  float64 `json:"p50_ns_per_ref"`
	P99NsRef  float64 `json:"p99_ns_per_ref"`
	Chunks    uint64  `json:"chunks"`
	ChunkRefs int     `json:"chunk_refs"`
}

type latReport struct {
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	Note      string            `json:"note"`
	Designs   []latDesignReport `json:"designs"`
}

// baselineNote qualifies the numbers: both paths are re-measured in the
// same process, repetition-interleaved (step chunk, then fast-forward
// chunk, alternating), so the ff_speedup ratio holds under whatever load
// the run saw — unlike a comparison against constants captured earlier.
const baselineNote = "accurate and fast-forward paths measured interleaved in the same process; " +
	"ff_speedup is the same-conditions ratio"

func meter(design config.L3Design, walk string, refs, reps, warm int) (designReport, latDesignReport, error) {
	cfg := config.Default()
	cfg.Design = design
	cfg.WalkModel = walk
	cfg.InPkg.SizeBytes >>= 6
	cfg.OffPkg.SizeBytes >>= 6
	cfg.CacheSize >>= 6
	w, err := system.SingleProgram("libquantum", 6, 1)
	if err != nil {
		return designReport{}, latDesignReport{}, err
	}
	m, err := system.New(cfg, w)
	if err != nil {
		return designReport{}, latDesignReport{}, err
	}
	if err := m.Steps(warm); err != nil {
		return designReport{}, latDesignReport{}, err
	}
	m.Drain()

	chunkRefs := refs / latChunks
	if chunkRefs == 0 {
		chunkRefs = 1
	}
	// Chunk-level ns/ref samples, kept whole: the tail report takes exact
	// nearest-rank percentiles of them.
	chunkNs := make([]float64, 0, reps*(refs/chunkRefs+1))

	best := designReport{Design: design.String()}
	var ms runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		// Accurate-path chunk.
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var elapsed time.Duration
		for done := 0; done < refs; done += chunkRefs {
			n := chunkRefs
			if refs-done < n {
				n = refs - done
			}
			start := time.Now()
			if err := m.Steps(n); err != nil {
				return designReport{}, latDesignReport{}, err
			}
			d := time.Since(start)
			elapsed += d
			chunkNs = append(chunkNs, float64(d.Nanoseconds())/float64(n))
		}
		runtime.ReadMemStats(&ms)

		ns := float64(elapsed.Nanoseconds()) / float64(refs)
		allocs := float64(ms.Mallocs-mallocs) / float64(refs)
		if rep == 0 || ns < best.NsPerRef {
			best.NsPerRef = ns
		}
		if allocs > best.AllocsPerRef {
			best.AllocsPerRef = allocs
		}

		// Fast-forward chunk, same reference count, same machine, back to
		// back with the accurate chunk it is compared against.
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
		start := time.Now()
		if err := m.FastForwardRefs(uint64(refs)); err != nil {
			return designReport{}, latDesignReport{}, err
		}
		ffNs := float64(time.Since(start).Nanoseconds()) / float64(refs)
		runtime.ReadMemStats(&ms)
		ffAllocs := float64(ms.Mallocs-mallocs) / float64(refs)
		if rep == 0 || ffNs < best.FFNsPerRef {
			best.FFNsPerRef = ffNs
		}
		if ffAllocs > best.FFAllocsPerRef {
			best.FFAllocsPerRef = ffAllocs
		}
	}
	if best.FFNsPerRef > 0 {
		best.FFSpeedup = best.NsPerRef / best.FFNsPerRef
	}
	sort.Float64s(chunkNs)
	lr := latDesignReport{
		Design:    best.Design,
		P50NsRef:  nearestRank(chunkNs, 50),
		P99NsRef:  nearestRank(chunkNs, 99),
		Chunks:    uint64(len(chunkNs)),
		ChunkRefs: chunkRefs,
	}
	return best, lr, nil
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule: the smallest sample with at least p%
// of the samples at or below it. No samples yield 0.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func main() {
	out := flag.String("o", "BENCH_step.json", "output path ('-' for stdout)")
	latOut := flag.String("lat-o", "", "also write the chunked step-cost distribution (p50/p99 ns/ref) to this path, e.g. BENCH_lat.json")
	refs := flag.Int("n", 1_000_000, "references per repetition")
	reps := flag.Int("reps", 5, "repetitions per design (best-of)")
	warm := flag.Int("warm", 100_000, "warm-up references before timing")
	cacheStats := flag.Bool("cache-stats", false, "also meter the result cache (cold simulate+store vs best-of-reps warm replay) and add the counters to the report")
	flag.Parse()

	r := report{
		Tool:       "cmd/benchstep",
		GoVersion:  runtime.Version(),
		RefsPerRep: *refs,
		Reps:       *reps,
		Note:       baselineNote,
	}
	lr := latReport{
		Tool:      "cmd/benchstep",
		GoVersion: runtime.Version(),
		Note: "wall-clock step cost per chunk of references, all repetitions pooled; " +
			"p99/p50 spread measures scheduler + GC jitter, not simulated latency",
	}
	for _, d := range []config.L3Design{
		config.NoL3, config.BankInterleave, config.SRAMTag, config.Tagless, config.Ideal,
		config.AlloyBlock, config.Banshee,
	} {
		dr, ldr, err := meter(d, "", *refs, *reps, *warm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstep: %s: %v\n", d, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-6s %7.2f ns/ref  %.4f allocs/ref  p50 %.1f p99 %.1f  ff %5.2f ns/ref (%.1fx)\n",
			dr.Design, dr.NsPerRef, dr.AllocsPerRef, ldr.P50NsRef, ldr.P99NsRef, dr.FFNsPerRef, dr.FFSpeedup)
		r.Designs = append(r.Designs, dr)
		lr.Designs = append(lr.Designs, ldr)
	}

	// Per-walk-model rows on the cTLB design: the fixed row is the exact
	// default path and pins the allocation-free step; the pwc and nested
	// rows price the simulated walk machinery.
	for _, walk := range []string{"fixed", "pwc", "nested"} {
		dr, _, err := meter(config.Tagless, walk, *refs, *reps, *warm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchstep: walk %s: %v\n", walk, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cTLB/%-6s %7.2f ns/ref  %.4f allocs/ref\n",
			walk, dr.NsPerRef, dr.AllocsPerRef)
		r.WalkModels = append(r.WalkModels, walkReport{
			Walk:         walk,
			Design:       dr.Design,
			NsPerRef:     dr.NsPerRef,
			AllocsPerRef: dr.AllocsPerRef,
		})
	}

	if *cacheStats {
		cr, err := meterCache(*reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchstep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "result cache: %s/%s %d refs: cold %.1f ms, warm %.3f ms (%.0fx), hits=%d misses=%d stored=%d\n",
			cr.Workload, cr.Design, cr.Refs, cr.ColdMs, cr.WarmMs, cr.Speedup, cr.Hits, cr.Misses, cr.Stored)
		r.Cache = cr
	}

	if err := writeJSON(*out, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchstep:", err)
		os.Exit(1)
	}
	if *latOut != "" {
		if err := writeJSON(*latOut, lr); err != nil {
			fmt.Fprintln(os.Stderr, "benchstep:", err)
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
