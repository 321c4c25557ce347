package dramcache_test

import (
	"math"
	"strings"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
)

// interleave builds the BI organization over devices of inPages and
// offPages pages, the whole in-package device its cache.
func interleave(t *testing.T, inPages, offPages int64) *org.Interleave {
	t.Helper()
	cfg := config.Default()
	cfg.CacheSize, cfg.InPkg.SizeBytes, cfg.OffPkg.SizeBytes = inPages*config.PageSize, inPages*config.PageSize, offPages*config.PageSize
	o, err := org.New(config.BankInterleave, org.Ports{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return o.(*org.Interleave)
}

// TestBankInterleaverFraction: at 1 GB in-package and 8 GB off-package
// every ninth page lands in-package.
func TestBankInterleaverFraction(t *testing.T) {
	b := interleave(t, 262144, 2097152)
	for p := uint64(0); p < 18; p++ {
		if _, in := b.MapPage(p); in != (p%9 == 0) {
			t.Fatalf("page %d in-package = %v, want a stride of 9", p, in)
		}
	}
	inCount := 0
	const N = 90000
	for p := uint64(0); p < N; p++ {
		if _, in := b.MapPage(p); in {
			inCount++
		}
	}
	frac := float64(inCount) / N
	if math.Abs(frac-1.0/9.0) > 0.001 {
		t.Fatalf("in-package fraction = %v, want 1/9", frac)
	}
}

func TestBankInterleaverDevPagesInRange(t *testing.T) {
	b := interleave(t, 16, 128)
	for p := uint64(0); p < 4096; p++ {
		dev, in := b.MapPage(p)
		if in && dev >= 16 {
			t.Fatalf("in-package dev page %d out of range", dev)
		}
		if !in && dev >= 128 {
			t.Fatalf("off-package dev page %d out of range", dev)
		}
	}
}

// TestBankInterleaverDeterministic: the mapping is a function of the
// page alone, so two calls and two organizations agree.
func TestBankInterleaverDeterministic(t *testing.T) {
	b1, b2 := interleave(t, 16, 128), interleave(t, 16, 128)
	d1, i1 := b1.MapPage(77)
	d2, i2 := b1.MapPage(77)
	d3, i3 := b2.MapPage(77)
	if d1 != d2 || i1 != i2 || d1 != d3 || i1 != i3 {
		t.Fatal("mapping not deterministic")
	}
}

// TestBankInterleaverPanics: the BI factory refuses, with an error, a
// cache with no in-package page.
func TestBankInterleaverPanics(t *testing.T) {
	cfg := config.Default()
	cfg.CacheSize = 100
	if _, err := org.New(config.BankInterleave, org.Ports{Cfg: cfg}); err == nil || !strings.Contains(err.Error(), "at least one in-package page") {
		t.Fatalf("BI at 100 bytes: error %v, want one naming the missing page", err)
	}
}
