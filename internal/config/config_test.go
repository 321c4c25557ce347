package config

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTable3(t *testing.T) {
	c := Default()
	if c.CPU.Cores != 4 || c.CPU.FreqGHz != 3.0 {
		t.Errorf("CPU = %+v, want 4 cores at 3GHz", c.CPU)
	}
	if c.L1TLB.Entries != 32 || c.L2TLB.Entries != 512 {
		t.Errorf("TLB entries = %d/%d, want 32/512", c.L1TLB.Entries, c.L2TLB.Entries)
	}
	if c.L1D.SizeBytes != 32*KB || c.L1D.Ways != 4 || c.L1D.LatencyCycle != 2 {
		t.Errorf("L1D = %+v", c.L1D)
	}
	if c.L2.SizeBytes != 2*MB || c.L2.Ways != 16 || c.L2.LatencyCycle != 6 {
		t.Errorf("L2 = %+v", c.L2)
	}
	if c.InPkg.SizeBytes != 1*GB || c.InPkg.BusBits != 128 || c.InPkg.BanksPerRank != 16 {
		t.Errorf("in-package DRAM = %+v", c.InPkg)
	}
	if c.OffPkg.SizeBytes != 8*GB || c.OffPkg.BusBits != 64 || c.OffPkg.BanksPerRank != 64 {
		t.Errorf("off-package DRAM = %+v", c.OffPkg)
	}
}

func TestDefaultMatchesTable4(t *testing.T) {
	c := Default()
	in, off := c.InPkg, c.OffPkg
	if in.Timing.TRCDns != 8 || in.Timing.TAAns != 10 || in.Timing.TRASns != 22 || in.Timing.TRPns != 14 {
		t.Errorf("in-package timing = %+v", in.Timing)
	}
	if off.Timing.TRCDns != 14 || off.Timing.TAAns != 14 || off.Timing.TRASns != 35 || off.Timing.TRPns != 14 {
		t.Errorf("off-package timing = %+v", off.Timing)
	}
	if in.Energy.IOPerBitPJ != 2.4 || off.Energy.IOPerBitPJ != 20 {
		t.Errorf("I/O energies = %v/%v, want 2.4/20", in.Energy.IOPerBitPJ, off.Energy.IOPerBitPJ)
	}
}

func TestBandwidthRatio(t *testing.T) {
	// The paper states in-package bandwidth is 4x off-package.
	c := Default()
	ratio := c.InPkg.PeakBandwidthGBs() / c.OffPkg.PeakBandwidthGBs()
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("bandwidth ratio = %v, want 4", ratio)
	}
}

func TestTransferNS(t *testing.T) {
	c := Default()
	// In-package: 1.6GHz DDR * 128 bits = 51.2 GB/s -> 4KB in 80ns.
	got := c.InPkg.TransferNS(4 * KB)
	if math.Abs(got-80) > 1e-9 {
		t.Errorf("in-package 4KB transfer = %vns, want 80", got)
	}
	// Off-package: 0.8GHz DDR * 64 bits = 12.8 GB/s -> 64B in 5ns.
	got = c.OffPkg.TransferNS(BlockSize)
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("off-package 64B transfer = %vns, want 5", got)
	}
}

func TestNSToCycles(t *testing.T) {
	c := Default()
	if got := c.NSToCycles(10); got != 30 {
		t.Errorf("10ns = %d cycles, want 30", got)
	}
	if got := c.NSToCycles(0.1); got != 1 {
		t.Errorf("0.1ns = %d cycles, want 1 (round up)", got)
	}
}

func TestCachePages(t *testing.T) {
	c := Default()
	if got := c.CachePages(); got != 256*1024 {
		t.Errorf("1GB/4KB = %d pages, want 262144", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SystemConfig)
		want   string
	}{
		{"zero cores", func(c *SystemConfig) { c.CPU.Cores = 0 }, "cores"},
		{"zero freq", func(c *SystemConfig) { c.CPU.FreqGHz = 0 }, "frequency"},
		{"zero issue", func(c *SystemConfig) { c.CPU.IssueWidth = 0 }, "issue"},
		{"zero mshrs", func(c *SystemConfig) { c.CPU.MSHRs = 0 }, "MSHR"},
		{"bad tlb ways", func(c *SystemConfig) { c.L1TLB.Ways = 5 }, "ways"},
		{"zero tlb", func(c *SystemConfig) { c.L2TLB.Entries = 0 }, "entries"},
		{"bad cache", func(c *SystemConfig) { c.L1D.SizeBytes = 0 }, "geometry"},
		{"bad dram", func(c *SystemConfig) { c.InPkg.Channels = 0 }, "geometry"},
		{"bad dram clock", func(c *SystemConfig) { c.OffPkg.BusGHz = 0 }, "clock"},
		{"cache too big", func(c *SystemConfig) { c.CacheSize = 2 * GB }, "exceeds"},
		{"cache unaligned", func(c *SystemConfig) { c.CacheSize = PageSize + 1 }, "multiple"},
		{"zero alpha", func(c *SystemConfig) { c.Tagless.Alpha = 0 }, "alpha"},
		{"alpha above blocks", func(c *SystemConfig) { c.Tagless.Alpha = c.CachePages() + 1 }, "exceeds the cache's"},
		{"alpha above superpage blocks", func(c *SystemConfig) {
			c.Tagless.SuperpagePages = 512
			c.Tagless.Alpha = c.CachePages()/512 + 1
		}, "exceeds the cache's"},
		{"hot filter threshold 1", func(c *SystemConfig) { c.Tagless.HotFilterThreshold = 1 }, "use 0"},
		{"zero walk", func(c *SystemConfig) { c.PageWalkCycles = 0 }, "walk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateSRAMTagWays(t *testing.T) {
	c := Default()
	c.Design = SRAMTag
	c.SRAMTag.Ways = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for zero SRAM-tag ways")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := Default()
	cp := c.Clone()
	cp.CPU.Cores = 16
	if c.CPU.Cores == 16 {
		t.Fatal("clone aliases the original")
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[L3Design]string{
		NoL3: "NoL3", BankInterleave: "BI", SRAMTag: "SRAM", Tagless: "cTLB", Ideal: "Ideal",
		AlloyBlock: "Alloy", Banshee: "Banshee",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if got := L3Design(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown design string = %q", got)
	}
	if FIFO.String() != "FIFO" || LRU.String() != "LRU" || CLOCK.String() != "CLOCK" {
		t.Error("replacement policy strings wrong")
	}
	if got := ReplacementPolicy(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown policy string = %q", got)
	}
}

func TestReplacementPolicyText(t *testing.T) {
	cases := []struct {
		in   string
		want ReplacementPolicy
		ok   bool
	}{
		{"FIFO", FIFO, true},
		{"fifo", FIFO, true},
		{"LRU", LRU, true},
		{"lru", LRU, true},
		{"Clock", CLOCK, true},
		{"CLOCK", CLOCK, true},
		{"", 0, false},
		{"MRU", 0, false},
		{"LRU ", 0, false},
		{"1", 0, false},
	}
	for _, tc := range cases {
		p := CLOCK + 1 // sentinel: a failed parse must leave it untouched
		err := p.UnmarshalText([]byte(tc.in))
		switch {
		case tc.ok && err != nil:
			t.Errorf("UnmarshalText(%q): %v", tc.in, err)
		case tc.ok && p != tc.want:
			t.Errorf("UnmarshalText(%q) = %v, want %v", tc.in, p, tc.want)
		case !tc.ok && err == nil:
			t.Errorf("UnmarshalText(%q) = %v, want an error", tc.in, p)
		case !tc.ok && p != CLOCK+1:
			t.Errorf("failed UnmarshalText(%q) overwrote the policy with %v", tc.in, p)
		}
	}
	for _, p := range []ReplacementPolicy{FIFO, LRU, CLOCK} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", p, err)
		}
		var back ReplacementPolicy
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("%v round-tripped to %v (%v)", p, back, err)
		}
	}
	if _, err := ReplacementPolicy(7).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range policy")
	}
}

func TestAllDesignsOrder(t *testing.T) {
	ds := AllDesigns()
	if len(ds) != 5 || ds[0] != NoL3 || ds[4] != Ideal {
		t.Fatalf("AllDesigns = %v", ds)
	}
}

func TestTable6Published(t *testing.T) {
	rows := Table6()
	if len(rows) != 4 {
		t.Fatalf("Table6 has %d rows, want 4", len(rows))
	}
	want := []struct {
		size int64
		tag  int64
		lat  int
	}{
		{128 * MB, 512 * KB, 5},
		{256 * MB, 1 * MB, 6},
		{512 * MB, 2 * MB, 9},
		{1 * GB, 4 * MB, 11},
	}
	for i, w := range want {
		r := rows[i]
		if r.CacheSize != w.size || r.TagBytes != w.tag || r.LatencyCyc != w.lat {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
		if r.Entries != int(w.size/PageSize) {
			t.Errorf("row %d entries = %d", i, r.Entries)
		}
	}
}

func TestTagParamsForExactAndExtrapolated(t *testing.T) {
	// Exact points round-trip.
	p := TagParamsFor(1 * GB)
	if p.TagBytes != 4*MB || p.LatencyCyc != 11 {
		t.Errorf("1GB params = %+v", p)
	}
	// Extrapolation: 2GB cache needs 8MB of tags, slower than 1GB's tags.
	p2 := TagParamsFor(2 * GB)
	if p2.TagBytes != 8*MB {
		t.Errorf("2GB tag bytes = %d, want 8MB", p2.TagBytes)
	}
	if p2.LatencyCyc <= 11 {
		t.Errorf("2GB latency = %d, want > 11", p2.LatencyCyc)
	}
	// Tiny cache never reports non-positive latency.
	p3 := TagParamsFor(4 * MB)
	if p3.LatencyCyc < 1 {
		t.Errorf("4MB latency = %d, want >= 1", p3.LatencyCyc)
	}
}

// Property: extrapolated tag latency and storage grow monotonically with
// cache size.
func TestTagParamsMonotonicProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		// Map to cache sizes between 16MB and ~4GB, page aligned.
		sa := int64(a%240+16) * MB
		sb := int64(b%240+16) * MB
		if sa > sb {
			sa, sb = sb, sa
		}
		pa, pb := TagParamsFor(sa), TagParamsFor(sb)
		return pa.TagBytes <= pb.TagBytes && pa.LatencyCyc <= pb.LatencyCyc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGIPTStorage(t *testing.T) {
	// The paper: 82 bits/entry, 2.56MB for a 1GB cache, <0.25% overhead.
	if GIPTEntryBits != 82 {
		t.Fatalf("GIPT entry = %d bits, want 82", GIPTEntryBits)
	}
	got := GIPTBytes(1 * GB)
	wantMB := 2.56
	gotMB := float64(got) / 1e6
	if math.Abs(gotMB-wantMB) > 0.2 {
		t.Errorf("GIPT for 1GB = %.2fMB, want ≈2.56MB", gotMB)
	}
	if ov := GIPTOverhead(1 * GB); ov >= 0.0025+1e-4 {
		t.Errorf("GIPT overhead = %v, want < 0.25%%", ov)
	}
	if GIPTOverhead(0) != 0 {
		t.Error("zero cache should have zero overhead")
	}
}

func TestBlockTagBytes(t *testing.T) {
	// The motivating example: 128MB of tags per 1GB block-based cache.
	if got := BlockTagBytes(1 * GB); got != 128*MB {
		t.Fatalf("block tags for 1GB = %d, want 128MB", got)
	}
}

func TestGIPTScalesLinearly(t *testing.T) {
	if 2*GIPTBytes(512*MB) != GIPTBytes(1*GB) {
		t.Fatal("GIPT storage should scale linearly with cache size")
	}
}

func TestTLBAndCacheSets(t *testing.T) {
	c := Default()
	if got := c.L1TLB.Sets(); got != 8 {
		t.Errorf("L1 TLB sets = %d, want 8", got)
	}
	if got := (TLBConfig{Entries: 16}).Sets(); got != 16 {
		t.Errorf("zero-way TLB sets = %d, want 16 (fully indexed)", got)
	}
	if got := c.L1D.Sets(); got != 128 {
		t.Errorf("L1D sets = %d, want 128", got)
	}
	if got := c.L2.Sets(); got != 2048 {
		t.Errorf("L2 sets = %d, want 2048", got)
	}
}

func TestTotalBanks(t *testing.T) {
	c := Default()
	if got := c.InPkg.TotalBanks(); got != 32 {
		t.Errorf("in-package banks = %d, want 32", got)
	}
	if got := c.OffPkg.TotalBanks(); got != 128 {
		t.Errorf("off-package banks = %d, want 128", got)
	}
}
