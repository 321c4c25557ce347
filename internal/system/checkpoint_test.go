package system

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// tinyMachineNames label the machines tinyMachine builds.
var tinyMachineNames = []string{"cTLB-pwc-shared-ctx-alias", "Banshee", "cTLB-nested-hotfilter-LRU-PARSEC"}

// tinyMachine builds machine i of a few deliberately small ones — one or
// two cores, small on-die caches, a 64-block DRAM cache — so a real
// checkpoint is a few kilobytes the fuzzer can cover. Machine 0 is the
// tagless design at its most stateful: the pwc walk, the shared TLB
// topology with ASID-retaining context switches, and the alias table
// over the shared pages of two processes. Machine 1 is Banshee. Machine 2
// runs a two-thread PARSEC group on the tagless design with the nested
// walk, the hot filter and LRU replacement.
func tinyMachine(tb testing.TB, i int) *Machine {
	tb.Helper()
	cfg := config.Default()
	cfg.CPU.Cores = 2
	cfg.L1TLB = config.TLBConfig{Entries: 8, Ways: 2}
	cfg.L2TLB = config.TLBConfig{Entries: 32, Ways: 4}
	cfg.L1D = config.CacheConfig{SizeBytes: 1 * config.KB, Ways: 2, LineBytes: config.BlockSize, LatencyCycle: 2}
	cfg.L2 = config.CacheConfig{SizeBytes: 4 * config.KB, Ways: 4, LineBytes: config.BlockSize, LatencyCycle: 6}
	cfg.InPkg.SizeBytes, cfg.InPkg.RanksPerChan, cfg.InPkg.BanksPerRank, cfg.InPkg.Microbanks = 1*config.MB, 1, 4, 1
	cfg.OffPkg.SizeBytes, cfg.OffPkg.RanksPerChan, cfg.OffPkg.BanksPerRank = 64*config.MB, 1, 4
	cfg.CacheSize = 256 * config.KB
	var w Workload
	var err error
	switch i {
	case 0:
		cfg.WalkModel, cfg.TLBTopology, cfg.CtxSwitchRefs = "pwc", "shared", 400
		cfg.Tagless.SharedAliasTable = true
		w = Workload{Name: "tiny-mix", Seed: 1}
		for _, name := range []string{"mcf", "sphinx3"} {
			p, perr := trace.ProfileByName(name)
			if perr != nil {
				tb.Fatal(perr)
			}
			p = p.Scaled(10)
			p.SharedFrac = 0.1
			w.PerCore = append(w.PerCore, p)
		}
	case 1:
		cfg.Design, cfg.CPU.Cores = config.Banshee, 1
		w, err = SingleProgramOn("mcf", 1, 10, 1)
	case 2:
		cfg.WalkModel = "nested"
		cfg.Tagless.HotFilterThreshold, cfg.Tagless.Policy = 2, config.LRU
		w, err = MultiThread("streamcluster", 10, 1)
	}
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(cfg, w)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// tinyWarmup and tinyMeasure are the per-core instruction budgets of a
// tiny machine's checkpoint and of the measured phase run after loading.
const tinyWarmup, tinyMeasure = 20_000, 2_000

// tinyImage warms tiny machine i and returns its checkpoint.
func tinyImage(tb testing.TB, i int) []byte {
	tb.Helper()
	m := tinyMachine(tb, i)
	if err := m.Warmup(tinyWarmup); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loadTiny restores img into a fresh tiny machine i.
func loadTiny(tb testing.TB, i int, img []byte) (*Machine, error) {
	m := tinyMachine(tb, i)
	return m, m.LoadCheckpoint(bytes.NewReader(img))
}

// FuzzCheckpointLoad: the input's first byte picks a tiny machine and
// the rest is a checkpoint for it. Any input either fails to load, or
// loads, re-saves to exactly its bytes and runs a short measured phase;
// nothing panics. The seeds are each machine's real checkpoint, the
// same truncated, the checkpoints of the five formats before, the v2
// gob stream and the v3, v4, v5 and v6 flat images (testdata, saved by
// earlier releases from the same machines), and an image whose final
// count is 2^40, which must fail before anything is allocated for it.
func FuzzCheckpointLoad(f *testing.F) {
	for i, name := range tinyMachineNames {
		img := tinyImage(f, i)
		f.Add(append([]byte{byte(i)}, img...))
		f.Add(append([]byte{byte(i)}, img[:len(img)*2/3]...))
		for _, old := range []string{"checkpoint-v2/" + name + ".gob", "checkpoint-v3/" + name + ".ckpt", "checkpoint-v4/" + name + ".ckpt", "checkpoint-v5/" + name + ".ckpt", "checkpoint-v6/" + name + ".ckpt"} {
			img, err := os.ReadFile(filepath.Join("testdata", old))
			if err != nil {
				f.Fatal(err)
			}
			if _, err := loadTiny(f, i, img); err == nil || !strings.Contains(err.Error(), "not a "+checkpointMagic+" stream") {
				f.Fatalf("%s: the old checkpoint loaded with %v", old, err)
			}
			f.Add(append([]byte{byte(i)}, img...))
		}
	}

	// Banshee's machine has no shared frames, so its image ends in the
	// empty map's zero count.
	img := tinyImage(f, 1)
	if img[len(img)-1] != 0 {
		f.Fatalf("the Banshee image ends %x, want the shared-frame count 0", img[len(img)-1])
	}
	forged := append(binary.AppendUvarint(img[:len(img)-1:len(img)-1], 1<<40), 0)
	allocs := func(img []byte) (uint64, error) {
		m := tinyMachine(f, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.LoadCheckpoint(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	real, err := allocs(img)
	if err != nil {
		f.Fatal(err)
	}
	grew, err := allocs(forged)
	if err == nil {
		f.Fatal("an image with 2^40 shared frames loaded")
	}
	if grew > real+1<<16 {
		f.Fatalf("refusing a forged count allocated %d bytes, a real load %d", grew, real)
	}
	f.Add(append([]byte{1}, forged...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := int(data[0]) % len(tinyMachineNames)
		m, err := loadTiny(t, i, data[1:])
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := m.SaveCheckpoint(&again); err != nil {
			t.Fatalf("a loaded %s checkpoint does not save: %v", tinyMachineNames[i], err)
		}
		if !bytes.Equal(again.Bytes(), data[1:]) {
			t.Fatalf("a loaded %s checkpoint of %d bytes re-saves as %d different bytes", tinyMachineNames[i], len(data)-1, again.Len())
		}
		// The measured phase may fail (a forged allocator can run out of
		// frames), but it must not panic.
		m.Measure(tinyMeasure)
	})
}

// visitExempt lists the only fields of the plain-data components a
// visit may leave out, each with its reason.
var visitExempt = map[string]string{
	"cpu.Core.ID":             "construction input",
	"cpu.Core.IssueWidth":     "construction input",
	"cpu.Core.MSHRs":          "construction input",
	"cpu.Core.issueShift":     "derived from IssueWidth",
	"cpu.Core.issueMask":      "derived from IssueWidth",
	"cpu.Core.issuePow2":      "derived from IssueWidth",
	"cache.Cache.cfg":         "construction input",
	"cache.Cache.ways":        "derived from cfg",
	"cache.Cache.nsets":       "derived from cfg",
	"cache.Cache.shift":       "derived from cfg",
	"cache.Cache.mask":        "derived from cfg",
	"cache.Cache.pageCnt":     "derived from the tags on the first InvalidateRange; a decoder drops it",
	"cache.Cache.pageShift":   "derived from cfg",
	"cache.Cache.pageMask":    "derived from cfg",
	"dram.Device.Name":        "construction input",
	"dram.Device.cfg":         "construction input",
	"dram.Device.tRCD":        "derived from cfg",
	"dram.Device.tAA":         "derived from cfg",
	"dram.Device.tRAS":        "derived from cfg",
	"dram.Device.tRP":         "derived from cfg",
	"dram.Device.tREFI":       "derived from cfg",
	"dram.Device.tRFC":        "derived from cfg",
	"dram.Device.tFAW":        "derived from cfg",
	"dram.Device.cyclesPerNS": "construction input",
	"dram.Device.pow2":        "derived from cfg",
	"dram.Device.rowShift":    "derived from cfg",
	"dram.Device.bankShift":   "derived from cfg",
	"dram.Device.bankMask":    "derived from cfg",
	"dram.Device.chanMask":    "derived from cfg",
	"dram.Device.xferBlock":   "derived from cfg",
	"dram.Device.Accesses":    windowCounter,
	"dram.Device.RowHits":     windowCounter,
	"dram.Device.Activates":   windowCounter,
	"dram.Device.BitsRead":    windowCounter,
	"dram.Device.BitsWrit":    windowCounter,
	"dram.Device.BitsIO":      windowCounter,
	"dram.bank.hits":          windowCounter,
	"dram.bank.confls":        windowCounter,
	"sim.Resource.Busy":       windowCounter,
	"sim.Kernel.next":         "derived: the empty queue's sentinel",
	"sim.Kernel.events":       "empty in any checkpoint: both sides refuse pending events",
	"sim.Kernel.pool":         "derived: recycled event objects, no state",
	"sim.Kernel.tracer":       "hook",
	"trace.Generator.p":       "construction input",
	"trace.Generator.thread":  "construction input",
	"trace.Generator.gapBase": "derived from p",
	"trace.Generator.thr":     "derived from p",
	"trace.shared.profile":    "construction input",
	"trace.shared.perm":       "derived from profile",
	"trace.shared.baseVPN":    "construction input",
	"org.Banshee.p":           "hook: the machine's ports",
	"org.Banshee.stats":       windowCounter,
}

// reach returns v's field name, settable even when unexported.
func reach(v reflect.Value, name string) reflect.Value {
	fv := v.FieldByName(name)
	return reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
}

// windowCounter is the visitExempt reason of a counter a checkpoint
// leaves out: a Result reads it only over a measured window, which
// starts by zeroing it.
const windowCounter = "window counter: beginMeasurement zeroes it before any read"

// TestCheckpointVisitsCoverEveryField is the dropped-field firewall for
// the plain-data components: each is filled — every field, exported or
// not, set to a distinct non-zero value — and its image decoded into a
// freshly built twin, which must then equal it field for field and
// render the same image. A field added to a component but not to its
// visit fails here unless visitExempt names it with a reason.
func TestCheckpointVisitsCoverEveryField(t *testing.T) {
	dcfg := config.Default().InPkg
	dcfg.Timing.TFAWns, dcfg.Timing.TREFIns, dcfg.Timing.TRFCns = 30, 3900, 260
	prof, err := trace.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	ocfg := config.Default()
	ocfg.CacheSize = 64 * config.PageSize
	type visitor interface{ Visit(*flat.Codec) }
	plain := func(v visitor) (any, func(*flat.Codec)) { return v, v.Visit }
	components := []struct {
		name  string
		build func() (any, func(*flat.Codec))
	}{
		{"cpu.Core", func() (any, func(*flat.Codec)) { return plain(cpu.New(0, 4, 8)) }},
		{"tlb.TLB", func() (any, func(*flat.Codec)) { return plain(tlb.New(config.TLBConfig{Entries: 8, Ways: 2})) }},
		{"cache.Cache", func() (any, func(*flat.Codec)) {
			return plain(cache.New(config.CacheConfig{SizeBytes: 1 * config.KB, Ways: 2, LineBytes: config.BlockSize}))
		}},
		{"dram.Device", func() (any, func(*flat.Codec)) { return plain(dram.New("in-pkg", dcfg, 3)) }},
		{"sim.Kernel", func() (any, func(*flat.Codec)) { return plain(sim.NewKernel()) }},
		{"trace.Generator", func() (any, func(*flat.Codec)) {
			gs, err := trace.NewThreadGroup(prof.Scaled(6), 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := gs[1]
			return g, func(c *flat.Codec) {
				g.Visit(c)
				g.VisitGroup(c)
			}
		}},
		{"org.Banshee", func() (any, func(*flat.Codec)) {
			o, err := org.New(config.Banshee, org.Ports{Cfg: ocfg})
			if err != nil {
				t.Fatal(err)
			}
			return plain(o.(*org.Banshee))
		}},
	}
	skipped := make(map[string]bool)
	for _, c := range components {
		want, visit := c.build()
		f := &filler{t: t, exempt: visitExempt, skipped: skipped}
		f.fill(reflect.ValueOf(want).Elem(), c.name)
		v := reflect.ValueOf(want).Elem()
		switch w := want.(type) {
		case *trace.Generator:
			// A decoder refuses a page visit Next cannot leave behind and
			// a hot page outside the footprint: keep those fields non-zero
			// but in range — mcf's four blocks of two repeats on a page of
			// the singleton region, which the fill made low-reuse (so not
			// shared), and hot pages just past the footprint's base.
			for name, x := range map[string]any{"page": trace.SingletonBase + 5, "pageShared": false, "blockIdx": 62, "blocksCut": 1, "repeats": 2} {
				reach(v, name).Set(reflect.ValueOf(x))
			}
			sh := reach(v, "sh").Elem()
			hot := reach(sh, "hot")
			for i := 0; i < hot.Len(); i++ {
				hot.Index(i).SetUint(reach(sh, "baseVPN").Uint() + uint64(i) + 1)
			}
		case *cache.Cache:
			inSetLines(w)
		case *tlb.TLB:
			inSetLines(reach(v, "keys").Addr().Interface().(*cache.Cache))
		}
		img, err := flat.Encode(nil, visit)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		twin, twinVisit := c.build()
		if err := flat.Decode(img, twinVisit); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := sameBits(reflect.ValueOf(want).Elem(), reflect.ValueOf(twin).Elem(), c.name, visitExempt); err != nil {
			t.Errorf("the image does not carry %v", err)
		}
		if again, _ := flat.Encode(nil, twinVisit); !bytes.Equal(again, img) {
			t.Errorf("%s: the decoded twin renders a different image", c.name)
		}
	}
	for key := range visitExempt {
		if !skipped[key] {
			t.Errorf("visitExempt names %s, which no component has", key)
		}
	}
}

// inSetLines fixes up a filled cache array, a component of its own or a
// TLB's keys. A decoder refuses a line outside its own set or held twice
// in it, or stamped after the clock: give each way a distinct non-zero
// block of its set and a distinct stamp before the clock, every other
// one dirty.
func inSetLines(c *cache.Cache) {
	v := reflect.ValueOf(c).Elem()
	ways, sets := c.Config().Ways, c.Config().Sets()
	tags, used := reach(v, "tags"), reach(v, "used")
	for i := 0; i < tags.Len(); i++ {
		tags.Index(i).SetUint(uint64(i/ways + (i%ways+1)*sets))
		used.Index(i).SetUint(uint64(i+1)<<1 | uint64(i%2))
	}
	reach(v, "tick").SetUint(uint64(tags.Len() + 1))
}

// TestCheckpointCarriesNoCounters: a checkpoint holds state, not the
// window counters beginMeasurement zeroes before anything reads them, so
// a warmed machine saves the same image whether or not those counters
// were reset first. MIX1 runs under shared TLBs on the two designs whose
// organizations count: cTLB and SRAM.
func TestCheckpointCarriesNoCounters(t *testing.T) {
	for _, d := range []config.L3Design{config.Tagless, config.SRAMTag} {
		t.Run(d.String(), func(t *testing.T) {
			image := func(reset bool) []byte {
				cfg := scaledConfig(d, 6)
				cfg.TLBTopology = "shared"
				w, err := Mix("MIX1", 6, 1)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Steps(200_000); err != nil {
					t.Fatal(err)
				}
				if reset {
					st := m.org.Stats()
					if m.inPkg.Accesses == 0 || m.offPkg.Accesses == 0 || *st == (org.Stats{}) || m.tlbShared.Invalidations == 0 {
						t.Fatalf("the warm-up left a counter at zero: devices %d/%d, org %+v, invalidations %d",
							m.inPkg.Accesses, m.offPkg.Accesses, *st, m.tlbShared.Invalidations)
					}
					m.inPkg.ResetStats()
					m.offPkg.ResetStats()
					*st = org.Stats{}
					m.tlbShared.Invalidations = 0
				}
				var buf bytes.Buffer
				if err := m.SaveCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(image(false), image(true)) {
				t.Error("resetting the window counters changed the checkpoint")
			}
		})
	}
}
