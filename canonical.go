package taglessdram

import (
	"encoding/json"
	"fmt"

	"taglessdram/internal/resultcache"
	"taglessdram/internal/system"
)

// modelVersion stamps every result-cache key with the simulator's
// behavioral generation. Bump it whenever the golden fingerprints change
// (a new organization, an event-ordering change, a metric fix): old
// cache entries then stop matching and every cell re-simulates, so a
// stale cache can never replay results from a different model.
//
// TestModelVersionPinsGoldens pins it together with a digest of the
// golden fingerprints, so neither can change without the other. It is a
// var, not a const, only so the invalidation tests can bump it;
// production code must treat it as a constant.
var modelVersion = 1

// samplerVersion stamps the cache keys of sampled jobs (Options.Sample
// set) with the sampled estimator's generation. Bump it when sampled
// Results change while the goldens, and so modelVersion, stay put: old
// sampled entries then stop matching and re-simulate, while unsampled
// keys do not move. Like modelVersion it is a var only so a test can bump
// it.
var samplerVersion = 1

// ModelVersion reports the simulator's behavioral generation stamp —
// the canonical.go constant that prefixes every result-cache key. The
// sweep service exposes it on /v1/stats and /metrics so clients can
// tell when two servers' caches are comparable.
func ModelVersion() int { return modelVersion }

// Canonical renders the options' semantic identity as JSON: the fields
// with a json name, in declaration order, and a derived quiesced bit
// standing in for the checkpoint fields. It is both the Options portion
// of a cache key's preimage and the options object RemoteSweep sends,
// which the sweep service decodes straight back into Options. Warmup is
// normalized to its effective value (Run substitutes Measure for a zero
// Warmup). It fails only on a Policy outside FIFO/LRU/CLOCK.
func (o Options) Canonical() ([]byte, error) {
	if o.Warmup == 0 {
		o.Warmup = o.Measure
	}
	return json.Marshal(struct {
		Options
		Quiesced bool `json:"quiesced,omitempty"`
	}{o, o.quiesced()})
}

// projectFor normalizes the option facets a design never consumes, so
// editing a tagless-only knob (victim policy, NC threshold, alias table,
// hot filter, superpages, alpha) leaves every other organization's cache
// keys untouched — re-running a sweep after such an edit re-simulates
// only the tagless cells. Sound because every consumer of these knobs
// (they all resolve into cfg.Tagless) is gated on the tagless
// organization: org/tagless.go reads them at construction, and the
// machine-level readers all check m.ctrl != nil or Design == Tagless
// first.
func (o Options) projectFor(design Design) Options {
	if design != Tagless {
		o.Policy = 0
		o.NCAccessThreshold = 0
		o.SynchronousEviction = false
		o.CachedGIPT = false
		o.SharedAliasTable = false
		o.HotFilterThreshold = 0
		o.Superpages = false
		o.Alpha = 0
	}
	// Walk-model-aware projection: PWCHitCycles is only consumed by the
	// walk-cache-bearing models (pwc, nested), so under the fixed model
	// its edits must not invalidate cache entries. Likewise the flush
	// policy only matters when context switching is on at all.
	if o.WalkModel == "" || o.WalkModel == "fixed" {
		o.PWCHitCycles = 0
	}
	if o.CtxSwitchRefs == 0 {
		o.CtxSwitchFlush = false
	}
	// The epoch ring's bound only shapes Result.Epochs when epoch
	// sampling is on.
	if o.EpochRefs == 0 {
		o.EpochCapacity = 0
	}
	return o
}

// quiesced reports whether the run uses the checkpointable Warmup/Measure
// phase pair instead of the plain Run path. The two paths produce
// different (each internally deterministic) results, so the bit is part
// of the semantic identity.
func (o Options) quiesced() bool {
	return o.CheckpointSave != "" || o.CheckpointLoad != "" || o.Checkpoints != nil
}

// cacheable reports whether a run's Result may be served from or stored
// into the result cache. Runs that load or save checkpoint files depend
// on (or must produce) external file state the fingerprint cannot see,
// and runs that request a kernel-event trace need the simulation to
// actually execute; all of them bypass the cache.
func (o Options) cacheable() bool {
	return o.CheckpointSave == "" && o.CheckpointLoad == "" && o.TraceEvents == nil
}

// preimageFor builds the full canonical encoding of a run's semantic
// identity: format and model versions (and the sampler version for a
// sampled run), the design, the workload and its trace digest, the
// semantic Options, and the fully resolved machine configuration.
// SystemConfig is a pure value struct (the classification test enforces
// that recursively), so its %+v rendering is deterministic. The preimage
// is stored alongside each cache entry for auditability; its SHA-256 is
// the cache key.
func preimageFor(design Design, name string, w system.Workload, o Options) (string, error) {
	td, err := system.TraceDigest(w)
	if err != nil {
		return "", err
	}
	// Project away knobs this design never reads — both in the canonical
	// options line and, because configFor maps them into cfg.Tagless, in
	// the rendered config — so their edits invalidate only the cells that
	// can feel them.
	o = o.projectFor(design)
	canon, err := o.Canonical()
	if err != nil {
		return "", err
	}
	cfg := configFor(design, o)
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	sampler := ""
	if o.Sample != nil {
		sampler = fmt.Sprintf("sampler=%d\n", samplerVersion)
	}
	return fmt.Sprintf(
		"taglessdram result-cache preimage v2\nmodel=%d\n%sdesign=%d(%s)\nworkload=%q\ntrace=%s\noptions=%s\nconfig=%+v\n",
		modelVersion, sampler, int(design), design, name, td,
		canon, *cfg), nil
}

// preimage is preimageFor on a Job, resolving its workload first.
func (j Job) preimage() (string, error) {
	w, err := j.resolve()
	if err != nil {
		return "", err
	}
	return preimageFor(j.Design, j.Workload, w, j.Options)
}

// fingerprint returns the job's cache key together with the preimage it
// hashes.
func (j Job) fingerprint() (resultcache.Key, string, error) {
	pre, err := j.preimage()
	if err != nil {
		return resultcache.Key{}, "", err
	}
	return resultcache.KeyOf(pre), pre, nil
}

// Fingerprint returns the hex content address identifying this job's
// Result in a result cache: the SHA-256 of the job's canonical semantic
// identity (model version, design, workload + trace digest, semantic
// options, fully resolved configuration). Two jobs share a fingerprint
// exactly when they are guaranteed to produce bit-identical Results.
func (j Job) Fingerprint() (string, error) {
	key, _, err := j.fingerprint()
	if err != nil {
		return "", err
	}
	return key.String(), nil
}
