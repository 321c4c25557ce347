package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// pinnedStreams holds the SHA-256 of three streams per profile (seed 1,
// footprint scaled by 6): the first 100,000 Next values, the first 5,000
// NextVisit values of a fresh generator, and 25,000 rounds of a
// two-thread group stepped alternately. Any change to the generator's
// arithmetic that moves one bit of any stream fails here.
var pinnedStreams = map[string][3]string{
	"mcf":           {"7662b9e4fe94345b77310954a91685cfbd3906b78cbc91852102ea7236cfa81e", "22c07798f5f7876d9aea31a5477e56b2c9b733c3f35a9f919df4475d62ec613a", "3b93e096930f0b224153dddbdf39c63cc279fb4d214fab4c8143d242d4d2e5da"},
	"milc":          {"7e8549c74c4d95d5035d6f23fd8270430eab3ee531ecba67b03576f821c75458", "668a73ed6ad2aea080da0e73905978607a765036eb726481a0d8508ad53904dc", "79fa0327e8965803cbc173e27cad3b9b93b361a3b67440544e9a2d148cc0c463"},
	"leslie3d":      {"1bb086e9d22d599255029c1597188eec373bd444afd03446307ae2e2ebd99f52", "0f645b7c19ee503d9274c79bb4081376184a4c4d9f32c8e29edd897cd3c9c313", "b192e42e84c1dbc93e4551b79b0289be056d51d28d7a4d498c2093f551a93700"},
	"soplex":        {"bab66fe67cda2bcaf70d4f5ac7fbcf3d7d40a5d9cd7ad48d383e351c3bea6c87", "9ecc810c30fe91ca54017c95496779af8216330a02115307e4fb2fcefc22a394", "4fc97fb78d3b9de4dbf0cf46a9e7743825719a88a556c1388f21b3541d5345d0"},
	"GemsFDTD":      {"6056ab285e34d18828950caafc1bb10873cf3483b477bda633fa394e0589f709", "522acb1370a24b5de5b46c58101b044a9a95fccceb0fc33824d8841b63b3e706", "eaf335b2817125fcda81ebbfd6ad0a27937e48ab6a7d969f0537a0a6ef9cfc59"},
	"lbm":           {"fdd68e8a17337f95955b894bc749af3543d757aa67ec572f30cb45729898121e", "b112d3e8a89d5cf9324cfab5c0b88dc67fb11d788b3327a880a9ebecce16196e", "ef8832de53a6b542884f43ebc6df5c1a1b33e7d7cd11e427fc5ea0fae10b5c45"},
	"omnetpp":       {"7c6d66ddc6c8c6498587099029a75921bd90f58d87a9c1fd1d450de3b4c2dce7", "f3f2b23a5f04e5e580fb3ac1b014b473314d6f684656e6d12285c5fd17302d9d", "fe24bf2bdba4dac7d5cba3c0555e1fae94140bafbe3f8b35e9b224943f7199f7"},
	"sphinx3":       {"cec9666178eb57b8abac63703f32566420a81748f422234a223921fbd9ff25c1", "b41db5cbf87b83351456b0a2e3200ba13a3a74377d65e6dba9e25c74cdcbbf36", "cbef95b2ebded0aa6eca8ca4cb89acaffe271c8ce84833335bceaad26e9a3d5b"},
	"libquantum":    {"e71226f77c9a7cc717ebcca764affa8cfc725ea415f8b810f4446e107aaf9354", "f8c42391eb0d6e9dad2fba2acb40a44dec8526934add0e911eb8fdadf62dfed7", "c803d2e2967b0aaa7bb0d231715703936857d305ef9426d59f3c61e7b09164f8"},
	"bwaves":        {"8782874fc9904c424a27e1ec9188c435d19012fc1ff733f3dc6a269c3ce33a8d", "43dd4db1237e969fd95eb29ad128981b6352ab46bf09cf6052d3cb4c7a908bd1", "754014181a1429f6752fc08fb62ce0defb0fccdee9eb57293aabc61418cb564d"},
	"zeusmp":        {"d32d9fbc18d03989e918208e5f936f3e14d3ab46279fa543134033ef7535d825", "c9d2979d22677673a827f4edaf73ff6f585373ffb7c6ebcce19b769ee9cc95bb", "4546550ed9c4e8d4861398f9dbbb757b2b1d256578cf1b35d12813fefe6cd12a"},
	"swaptions":     {"af3b3170641deacce7a303b382e65c3f8db42a7b34a35e46b88282fa858367da", "9d47fff8b260e11c0907f6466cae73c2b1777586f13242dbecca300b69a4043a", "8fe1522fdeeeb4279a8206c9cf46ec432e0b97f65605f2b89f9c6f5917b1ce31"},
	"facesim":       {"2bef4e7a5fb5977b969927aa9b45d8746ebfb90e402cdb857cf3c884d5ad9dbb", "4246eb755fdfb8cd0f79b19e562f5625d71ccea2145bf483a4b4e4be8de98f2a", "0eb602073fa5ce2577cfe6ec4a8f7ed4611bbeeacc00246ab87e063c2cdbe8e5"},
	"fluidanimate":  {"2cd589d27b85be5febb7eafd441751263b5dec7e42de4eb0f12dd3aa24ef1ea2", "75361b411fe1527914eb96efcc8348c8dd3d657ab82d8601a08af9d7145f79ef", "fe366d2612ee646f2d25af7e3ed93e56a514199b251dfa2f367d74072e46ef45"},
	"streamcluster": {"d58497835741d4df481bbde8114014b7e1747e6f59f6fae6cc79c706afe09f1f", "8d829a362e2df4d6b53692add0ad0c0b9a6ab0816f40750aa35998764e98b463", "2b41dc0c8e8141f5ee78acbc9282c859f0afca1e42b0dc7259e49eb9c6a1bf83"},
	"mcf+shared":    {"8fc81690b43a6cf885b534a29058f2e33b0aa9667fb531aa1caae2783193ddff", "0a3a37ec48bbfe821e3a45b9c5f7998a28d59f19cb1a711dfdd2b0ea0a0dc179", "95602c69507ba5818c1b83625a2356e1dfc177456c49cd5337c8549919513ce4"},
}

// pinProfiles is every shipped profile plus a shared-region variant,
// since no shipped profile visits the shared region.
func pinProfiles(t *testing.T) []Profile {
	var out []Profile
	for _, name := range append(SPECNames(), PARSECNames()...) {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Scaled(6))
	}
	shared := out[0]
	shared.Name += "+shared"
	shared.SharedFrac = 0.15
	return append(out, shared)
}

func hashAccess(h hash.Hash, a Access) {
	var b [8 + 8 + 4]byte
	binary.LittleEndian.PutUint64(b[0:], a.VAddr)
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(a.Gap)))
	for i, f := range []bool{a.Write, a.LowReuse, a.Dependent, a.Shared} {
		if f {
			b[16+i] = 1
		}
	}
	h.Write(b[:])
}

func hashVisit(h hash.Hash, v Visit) {
	var b [8*7 + 2]byte
	for i, x := range []uint64{v.Page, uint64(v.FirstBlock), uint64(v.Blocks), v.Refs, v.Instr, v.AnyWrite, v.FirstWrite} {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	if v.LowReuse {
		b[56] = 1
	}
	if v.Shared {
		b[57] = 1
	}
	h.Write(b[:])
}

// streamDigests renders p's three pinned streams.
func streamDigests(t *testing.T, p Profile) [3]string {
	var out [3]string
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

	h := sha256.New()
	g := NewGenerator(p, 1)
	for i := 0; i < 100_000; i++ {
		hashAccess(h, g.Next())
	}
	out[0] = sum(h)

	h = sha256.New()
	g = NewGenerator(p, 1)
	var v Visit
	for i := 0; i < 5_000; i++ {
		g.NextVisit(&v)
		hashVisit(h, v)
	}
	out[1] = sum(h)

	h = sha256.New()
	gs, err := NewThreadGroup(p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25_000; i++ {
		hashAccess(h, gs[0].Next())
		hashAccess(h, gs[1].Next())
	}
	out[2] = sum(h)
	return out
}

// TestGeneratorStreamPinned pins every profile's reference stream, visit
// stream and thread-group interleaving bit for bit.
func TestGeneratorStreamPinned(t *testing.T) {
	for _, p := range pinProfiles(t) {
		got := streamDigests(t, p)
		want, ok := pinnedStreams[p.Name]
		if !ok {
			t.Errorf("%s: no pinned digests; got %q", p.Name, got)
			continue
		}
		for i, stream := range []string{"Next", "NextVisit", "thread group"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s stream digest %s, pinned %s", p.Name, stream, got[i], want[i])
			}
		}
	}
}

// TestThresholdMatchesFloatCompare: an integer compare of a draw's top 53
// bits against threshold(p) decides exactly as float64(x)/2^53 < p, at
// the edges of each threshold and at random draws.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	ps := []float64{0, math.Ldexp(1, -54), math.Ldexp(1, -53), 0.1, 0.25, 0.3, 1 - math.Ldexp(1, -53), 1}
	for _, p := range pinProfiles(t) {
		ps = append(ps, p.HotFraction, p.SingletonFrac, p.WriteFraction, p.DependentFrac, p.SharedFrac)
	}
	const top = uint64(1) << 53
	r := rng{s: 1}
	for _, p := range ps {
		thr := threshold(p)
		xs := []uint64{0, 1, thr - 1, thr, thr + 1, top - 1}
		for i := 0; i < 10_000; i++ {
			xs = append(xs, r.next()>>11)
		}
		for _, x := range xs {
			if x >= top {
				continue // thr-1 wrapped at thr == 0, or thr+1 past the draw range
			}
			if got, want := x < thr, float64(x)/float64(top) < p; got != want {
				t.Fatalf("p=%v (threshold %d), x=%d: integer compare %t, float compare %t", p, thr, x, got, want)
			}
		}
	}
}

// benchProfiles are the generator benchmarks' workloads: pointer-chasing
// mcf (short visits), streaming libquantum (32-block visits) and milc.
func benchProfiles(b *testing.B) []Profile {
	var out []Profile
	for _, name := range []string{"mcf", "libquantum", "milc"} {
		p, err := ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p.Scaled(6))
	}
	return out
}

// benchSink keeps the benchmarks' results live.
var benchSink uint64

// BenchmarkGeneratorNext meters the per-reference stream.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, p := range benchProfiles(b) {
		b.Run(p.Name, func(b *testing.B) {
			g := NewGenerator(p, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += g.Next().VAddr
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ref")
		})
	}
}

// BenchmarkGeneratorNextVisit meters the per-visit stream the
// fast-forward path consumes; ns/op is per visit, ns/ref per reference
// the visits stand for.
func BenchmarkGeneratorNextVisit(b *testing.B) {
	for _, p := range benchProfiles(b) {
		b.Run(p.Name, func(b *testing.B) {
			g := NewGenerator(p, 1)
			var v Visit
			var refs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextVisit(&v)
				refs += v.Refs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}
