package trace

import (
	"fmt"
	"strings"

	"taglessdram/internal/lat"
)

// Report characterizes a reference stream: the aggregate properties the
// synthetic profiles are built from, measured back out of a trace. It is
// how recorded traces are validated against their source profiles.
type Report struct {
	Accesses     uint64
	Instructions uint64

	// BlockMPKI is distinct-block touches per kilo-instruction — the
	// upper bound on L2 MPKI a cache hierarchy can observe.
	BlockMPKI float64

	FootprintPages  int // distinct pages below the singleton region
	SingletonPages  int // distinct pages in the singleton region
	SharedPages     int // distinct pages in the shared region
	WriteFraction   float64
	SharedFraction  float64
	DependentFrac   float64
	LowReuseFrac    float64
	MeanBurstBlocks float64 // consecutive same-page distinct-block runs

	// PageReuse is the log2 histogram of page inter-visit distances (in
	// page visits); long tails indicate streaming re-use, short ones a
	// hot working set.
	PageReuse lat.Hist
	// VisitsPerPage is the mean number of visits per distinct page.
	VisitsPerPage float64
}

// Analyze consumes n accesses from src and measures the stream.
func Analyze(src Source, n uint64) Report {
	var r Report
	var writes, shared, dependent, lowReuse uint64
	var distinctBlocks uint64
	lastBlock := ^uint64(0)

	lastVisit := map[uint64]uint64{} // page → visit index of last visit
	visitCount := map[uint64]uint64{}
	var visitIdx uint64
	lastPage := ^uint64(0)

	var burstLen, burstSum, burstN uint64

	for i := uint64(0); i < n; i++ {
		a := src.Next()
		r.Accesses++
		r.Instructions += uint64(a.Gap) + 1
		if a.Write {
			writes++
		}
		if a.Shared {
			shared++
		}
		if a.Dependent {
			dependent++
		}
		if a.LowReuse {
			lowReuse++
		}
		blk := a.VAddr >> 6
		if blk != lastBlock {
			distinctBlocks++
			lastBlock = blk
		}
		page := a.VAddr >> 12
		if page != lastPage {
			// New page visit.
			if burstLen > 0 {
				burstSum += burstLen
				burstN++
			}
			burstLen = 0
			visitIdx++
			if last, ok := lastVisit[page]; ok {
				r.PageReuse.Observe(visitIdx - last)
			}
			lastVisit[page] = visitIdx
			visitCount[page]++
			lastPage = page
		}
		burstLen++
	}
	if burstLen > 0 {
		burstSum += burstLen
		burstN++
	}

	for page := range lastVisit {
		switch {
		case page >= SharedBase:
			r.SharedPages++
		case page >= SingletonBase:
			r.SingletonPages++
		default:
			r.FootprintPages++
		}
	}
	if r.Instructions > 0 {
		r.BlockMPKI = float64(distinctBlocks) / float64(r.Instructions) * 1000
	}
	if r.Accesses > 0 {
		r.WriteFraction = float64(writes) / float64(r.Accesses)
		r.SharedFraction = float64(shared) / float64(r.Accesses)
		r.DependentFrac = float64(dependent) / float64(r.Accesses)
		r.LowReuseFrac = float64(lowReuse) / float64(r.Accesses)
	}
	if burstN > 0 {
		// Burst length in accesses; convert to distinct blocks via the
		// distinct-block share.
		r.MeanBurstBlocks = float64(distinctBlocks) / float64(burstN)
	}
	if len(visitCount) > 0 {
		var total uint64
		for _, v := range visitCount {
			total += v
		}
		r.VisitsPerPage = float64(total) / float64(len(visitCount))
	}
	return r
}

// String renders a multi-line summary.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accesses:        %d\n", r.Accesses)
	fmt.Fprintf(&sb, "instructions:    %d (%.1f per access)\n",
		r.Instructions, safeDiv(float64(r.Instructions), float64(r.Accesses)))
	fmt.Fprintf(&sb, "block MPKI:      %.1f\n", r.BlockMPKI)
	fmt.Fprintf(&sb, "footprint pages: %d (+%d singletons, +%d shared)\n",
		r.FootprintPages, r.SingletonPages, r.SharedPages)
	fmt.Fprintf(&sb, "writes:          %.1f%%\n", r.WriteFraction*100)
	fmt.Fprintf(&sb, "dependent:       %.1f%%\n", r.DependentFrac*100)
	fmt.Fprintf(&sb, "shared:          %.1f%%\n", r.SharedFraction*100)
	fmt.Fprintf(&sb, "low-reuse:       %.1f%%\n", r.LowReuseFrac*100)
	fmt.Fprintf(&sb, "visits/page:     %.2f\n", r.VisitsPerPage)
	fmt.Fprintf(&sb, "blocks/burst:    %.1f\n", r.MeanBurstBlocks)
	if r.PageReuse.Count() > 0 {
		fmt.Fprintf(&sb, "page reuse dist: p50=%.0f p90=%.0f visits (n=%d)\n",
			r.PageReuse.Quantile(50), r.PageReuse.Quantile(90), r.PageReuse.Count())
	}
	return sb.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
