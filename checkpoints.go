package taglessdram

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	"taglessdram/internal/config"
	"taglessdram/internal/system"
)

// SampleSpec configures SMARTS-style sampled simulation (re-exported from
// the system package): cycle-accurate windows of WindowRefs trace
// references, one per PeriodRefs references, with functional fast-forward
// covering the gaps.
type SampleSpec = system.SampleSpec

// SampledInfo summarizes a sampled run (Result.Sampled): the window
// population and the IPC estimate ± CI95 it yields.
type SampledInfo = system.SampledInfo

// CheckpointStore is an in-memory warm-state cache for sweeps: the first
// run of each (workload, configuration, warm-up) combination warms up
// cycle-accurately and deposits its serialized post-warmup state; every
// later run with the same key restores it and skips straight to the
// measured phase. The store is safe for concurrent use, so one store can
// back a parallel sweep — two workers racing on the same key both warm up
// and deposit identical bytes (warm-up is deterministic), which is
// wasteful but correct.
//
// A workload is keyed by its trace digest, as in the result-cache key:
// its seed and every per-core profile parameter, not its name. So a
// study's modified mix or a one-core run-alone program never restores
// the state of the named workload it is built from. Keys also include the
// full machine configuration: a checkpoint encodes design-specific state
// (the tagless controller's GIPT, cache tag arrays), so a warm state is
// only valid for an identically configured machine.
type CheckpointStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{m: make(map[string][]byte)}
}

func (s *CheckpointStore) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	return data, ok
}

func (s *CheckpointStore) put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
}

// Len reports how many distinct warm states the store holds.
func (s *CheckpointStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// checkpointKey identifies a warm state: the identity a checkpoint
// carries (the workload's trace digest and the resolved configuration)
// and the warm-up length.
func checkpointKey(cfg *config.SystemConfig, w system.Workload, o Options) (string, error) {
	trace, machine, err := system.Identity(cfg, w)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("trace=%s|warmup=%d|cfg=%s", trace, o.Warmup, machine), nil
}

// runMachine executes one built machine under the Options' execution
// path. The default path is Machine.Run, byte-identical to every release
// before the speed layer existed. Sampling routes through RunSampled.
// Any checkpoint option switches to the Warmup/Measure pair — Warmup
// quiesces the event kernel so the state has a serialized form (see
// internal/system/checkpoint.go for the exactness contract) — and the
// warm state comes from, in precedence order: the CheckpointLoad file, a
// CheckpointStore hit, or a fresh cycle-accurate warm-up (deposited into
// the store and/or CheckpointSave file for the next run).
func runMachine(m *system.Machine, cfg *config.SystemConfig, w system.Workload, o Options) (*Result, error) {
	if o.CheckpointSave == "" && o.CheckpointLoad == "" && o.Checkpoints == nil {
		if o.Sample != nil {
			return m.RunSampled(o.Warmup, o.Measure, *o.Sample)
		}
		return m.Run(o.Warmup, o.Measure)
	}

	var key string
	warmed := false
	switch {
	case o.CheckpointLoad != "":
		data, err := os.ReadFile(o.CheckpointLoad)
		if err != nil {
			return nil, fmt.Errorf("taglessdram: checkpoint: %w", err)
		}
		if err := m.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			return nil, err
		}
		warmed = true
	case o.Checkpoints != nil:
		var err error
		if key, err = checkpointKey(cfg, w, o); err != nil {
			return nil, err
		}
		if data, ok := o.Checkpoints.get(key); ok {
			if err := m.LoadCheckpoint(bytes.NewReader(data)); err != nil {
				return nil, err
			}
			warmed = true
		}
	}
	if !warmed {
		if err := m.Warmup(o.Warmup); err != nil {
			return nil, err
		}
		if o.Checkpoints != nil {
			var buf bytes.Buffer
			if err := m.SaveCheckpoint(&buf); err != nil {
				return nil, err
			}
			o.Checkpoints.put(key, buf.Bytes())
		}
	}
	if o.CheckpointSave != "" {
		var buf bytes.Buffer
		if err := m.SaveCheckpoint(&buf); err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.CheckpointSave, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("taglessdram: checkpoint: %w", err)
		}
	}
	if o.Sample != nil {
		return m.MeasureSampled(o.Measure, *o.Sample)
	}
	return m.Measure(o.Measure)
}
