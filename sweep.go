package taglessdram

import (
	"context"
	"fmt"

	"taglessdram/internal/resultcache"
	"taglessdram/internal/sweep"
	"taglessdram/internal/system"
)

// Job names one simulation of a sweep: a cache design, a workload and the
// options to run it under.
type Job struct {
	Design   Design
	Workload string
	Options  Options
	// built, when set, is the workload the job runs: one a study built
	// because no name resolves to it, like the shared-page study's
	// modified mix. Workload then only labels it; the cache key digests
	// the built workload's profiles either way.
	built *system.Workload
}

// SweepProgress is the snapshot passed to Options.Progress after each
// simulation of a sweep completes: jobs done out of total, elapsed wall
// time and an extrapolated ETA.
type SweepProgress = sweep.Progress

// Sweep runs every job with at most `workers` simulations in flight
// (0 = runtime.GOMAXPROCS(0), 1 = serial) and returns one Result per job
// in submission order, regardless of completion order. Each job builds a
// fully isolated simulation, so a parallel sweep produces bit-identical
// metrics to running the same jobs serially. The first job to fail
// cancels the sweep: queued jobs are skipped, in-flight jobs finish, and
// the lowest-index failure is returned. A panicking simulation surfaces
// as that job's error instead of killing the sweep.
func Sweep(ctx context.Context, jobs []Job, workers int) ([]*Result, error) {
	return sweepRun(ctx, jobs, sweep.Options{Workers: workers})
}

// sweepRun maps Jobs onto the generic engine, tagging errors with the
// failing (workload, design) pair. Identical jobs in one sweep are
// deduplicated by fingerprint through a single-flight memo: the first
// occurrence simulates (or hits the result cache) and every duplicate —
// concurrent or later — receives a private copy of its Result instead
// of re-simulating.
func sweepRun(ctx context.Context, jobs []Job, opt sweep.Options) ([]*Result, error) {
	out, err := sweepRunShared(ctx, jobs, opt, sharedSweep{flight: resultcache.NewFlight[settled]()})
	results := make([]*Result, len(out))
	for i, s := range out {
		results[i] = s.r
	}
	return results, err
}

// settled is what one job of a sweep resolved to: the Result it
// simulated or decoded, the result-cache payload it read or encoded, or
// both. The single-flight memo hands one settled value to every
// duplicate of a job, so neither field is mutated once settled.
type settled struct {
	r       *Result
	payload []byte
}

// jobKey is a job's result-cache key together with the canonical
// preimage it hashes.
type jobKey struct {
	key resultcache.Key
	pre string
}

// sweepProbe observes per-job execution milestones inside
// sweepRunShared — the seam the sweep service's telemetry (per-phase
// histograms, span traces) hangs off. Callbacks fire from worker
// goroutines, concurrently across jobs but at most once per milestone
// per job index; a nil probe costs one branch. All four callbacks must
// be set on a non-nil probe.
type sweepProbe struct {
	// jobStart fires when a worker picks the job up (end of its queue
	// wait).
	jobStart func(i int)
	// jobLookup fires after the job's result-cache lookup, with its
	// outcome. Jobs that skip the lookup (uncacheable options, no store,
	// deduplicated against a concurrent identical cell) never fire it.
	jobLookup func(i int, hit bool)
	// jobEncode fires when a Result this job simulated starts being
	// encoded into its payload (the end of its simulation). It fires
	// only for jobs that encode: fresh simulations under a store, or in
	// a payload sweep.
	jobEncode func(i int)
	// jobDone fires when the job is settled in the form its sweep asked
	// for: encoded and stored, if it encoded. cached means no simulation
	// ran for it: a store hit or a shared in-flight result.
	jobDone func(i int, cached bool, err error)
}

// sharedSweep configures sweepRunShared for one caller.
type sharedSweep struct {
	// flight is the single-flight memo identical cells share. The sweep
	// service keeps one for its whole lifetime, so concurrent sweeps
	// deduplicate identical cells across each other.
	flight *resultcache.Flight[settled]
	// forget drops each key from the memo as soon as its run completes:
	// concurrent duplicates still share one execution, later ones are
	// served by the persistent result cache, and the memo never pins
	// every Result (or transient error) a long-running server has ever
	// produced.
	forget bool
	// keys, when set, holds each job's fingerprint, computed by the
	// caller (the sweep service fingerprints every cell to validate the
	// request). Without it each worker fingerprints its own job.
	keys []jobKey
	// payloads settles every job to its payload bytes instead of a
	// Result: a cache hit is its stored bytes, a fresh Result is encoded
	// once for the store and the caller, and nothing is decoded or
	// cloned. The sweep service streams those bytes as they are.
	payloads bool
	probe    *sweepProbe
}

// sweepRunShared is the one sweep core behind in-process sweeps and the
// sweep service. Each job settles through sh.flight: read-through from
// the result cache, else simulate (and store). Without payloads, every
// job gets a private Result: the leader keeps what it settled to, a
// duplicate decodes the shared payload, or clones a shared Result no
// payload was encoded for. With payloads, every job gets its payload
// (settled.payload) and Results are only ever encoded.
func sweepRunShared(ctx context.Context, jobs []Job, opt sweep.Options, sh sharedSweep) ([]settled, error) {
	// The engine's job type carries the submission index so the probe
	// can attribute milestones to sweep lanes.
	type ijob struct {
		i int
		j Job
	}
	idx := make([]ijob, len(jobs))
	for i, j := range jobs {
		idx[i] = ijob{i, j}
	}
	probe := sh.probe
	return sweep.Run(ctx, idx, func(_ context.Context, ij ijob) (settled, error) {
		i, j := ij.i, ij.j
		// A kernel-event trace is a single-run affair: jobs would
		// interleave on the shared writer. No other observer needs
		// clearing, since settling a job calls none: a sweep reports
		// through the engine's OnProgress and runJobs' MetricsSink. Shared
		// Checkpoints and ResultCache stores deliberately pass through:
		// both are concurrency-safe, and sweeps are exactly where
		// warm-once and replay-instead-of-rerun pay off.
		j.Options.TraceEvents = nil
		if probe != nil {
			probe.jobStart(i)
		}
		// finish hands the job its own copy in the form the sweep asked
		// for. Only the two conversions that cannot be avoided run here:
		// a payload for a Result nothing encoded yet, or a Result for a
		// job that shares another job's settled value.
		finish := func(s settled, shared, cached bool, err error) (settled, error) {
			switch {
			case err != nil:
			case sh.payloads:
				if s.payload == nil {
					s.payload, err = probe.encode(i, s.r)
				}
				s.r = nil
			case !shared:
			case s.payload != nil:
				s.r, err = resultcache.Decode(s.payload)
			default:
				s.r, err = resultcache.Clone(s.r)
			}
			if err != nil {
				err = fmt.Errorf("%s/%v: %w", j.Workload, j.Design, err)
			}
			if probe != nil {
				probe.jobDone(i, cached, err)
			}
			return s, err
		}
		if !j.Options.cacheable() {
			r, err := j.simulate()
			return finish(settled{r: r}, false, false, err)
		}
		var k jobKey
		if sh.keys != nil {
			k = sh.keys[i]
		} else {
			key, pre, err := j.fingerprint()
			if err != nil {
				// Not fingerprintable: invalid options or an unknown
				// workload, which simulating would report the same way.
				return finish(settled{}, false, false, err)
			}
			k = jobKey{key, pre}
		}
		if sh.forget {
			// Idempotent: whichever of the sharers gets here first drops
			// the memo entry; waiters already inside the call still share
			// its result. Deferred, so a leader whose job panics forgets
			// its call too.
			defer sh.flight.Forget(k.key)
		}
		// hit is only written when this goroutine executes the flight
		// body itself (shared == false), so the read below never races.
		hit := false
		s, shared, err := sh.flight.Do(k.key, func() (settled, error) {
			s, h, err := j.settle(k, sh.payloads, probe, i)
			hit = h
			return s, err
		})
		return finish(s, shared, hit || shared, err)
	}, opt)
}

// settle is the one result-cache read-through of every job, whether it
// comes from Run, a sweep, the sweep service or a study. A cacheable job
// with a store is looked up under k — as a Result, or as its stored
// payload bytes when payloads is set — and on a miss simulates, is
// encoded once and stored; any other job just simulates. hit reports a
// store hit. The lookup and the encode are separately observable through
// probe (nil outside the sweep service) as sweep lane i's milestones.
// A failed store write fails the job.
func (j Job) settle(k jobKey, payloads bool, probe *sweepProbe, i int) (s settled, hit bool, err error) {
	store := j.Options.ResultCache
	if store == nil || !j.Options.cacheable() {
		s.r, err = j.simulate()
		return s, false, err
	}
	if payloads {
		s.payload, hit = store.Payload(k.key)
	} else {
		s.r, hit = store.Get(k.key)
	}
	if probe != nil {
		probe.jobLookup(i, hit)
	}
	if hit {
		return s, true, nil
	}
	if s.r, err = j.simulate(); err != nil {
		return settled{}, false, err
	}
	if s.payload, err = probe.encode(i, s.r); err != nil {
		return settled{}, false, err
	}
	if err := store.PutPayload(k.key, k.pre, s.payload); err != nil {
		return settled{}, false, fmt.Errorf("taglessdram: result cache: %w", err)
	}
	return s, false, nil
}

// encode renders a Result a job simulated as its payload, first marking
// the start of sweep lane i's encode phase on a non-nil probe.
func (p *sweepProbe) encode(i int, r *Result) ([]byte, error) {
	if p != nil {
		p.jobEncode(i)
	}
	payload, err := resultcache.Encode(r)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: encoding result: %w", err)
	}
	return payload, nil
}

// runJobs is the figure/table runners' shared entry point: the fan-out
// width and progress callback come from the sweep's own Options, and the
// caller's context cancels the sweep (queued jobs are skipped, in-flight
// jobs finish). When the sweep-level Options name a Server, the whole
// grid is shipped to that sweep service instead of simulating locally —
// the service's results are bit-identical, so everything downstream of
// runJobs is oblivious to where the cells ran. When the sweep-level
// Options carry a MetricsSink, every completed Result is delivered to it
// in submission order after the sweep finishes — the order (and
// therefore any serialized output) is independent of Workers.
func runJobs(ctx context.Context, o Options, jobs []Job) ([]*Result, error) {
	var results []*Result
	var err error
	if o.Server != "" {
		results, err = RemoteSweep(ctx, o.Server, jobs, o)
	} else {
		results, err = sweepRun(ctx, jobs, o.sweepOptions())
	}
	if err == nil && o.MetricsSink != nil {
		for _, r := range results {
			o.MetricsSink(r)
		}
	}
	return results, err
}

// sweepOptions extracts the engine knobs from simulation options.
func (o Options) sweepOptions() sweep.Options {
	return sweep.Options{Workers: o.Workers, OnProgress: o.Progress}
}
