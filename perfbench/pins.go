package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"taglessdram"
)

// pinSet is the reference record of every simulated output the default
// seed produces, keyed by the model version it was recorded under. A
// change that only aims at speed must reproduce it exactly.
type pinSet struct {
	ModelVersion int          `json:"model_version"`
	Seed         uint64       `json:"seed"`
	GoVersion    string       `json:"go_version"`
	Figures      []runnerPin  `json:"figures_cold"`
	Sampled      []sampledPin `json:"sampled_long"`
	Service      []string     `json:"service_resweep"`
}

// runnerPin is one figure/table runner call of the figures-cold pass:
// the digest of every Result it delivered to the MetricsSink, in order,
// and of its typed rows.
type runnerPin struct {
	Name    string   `json:"name"`
	Cells   int      `json:"cells"`
	Results []string `json:"results"`
	Rows    string   `json:"rows"`
}

// sampledPin is one sampled-long cell: the sampled Result's digest and
// the cycle-accurate IPC of the same restored cell, the reference the
// sampling error is measured against.
type sampledPin struct {
	Cell    string  `json:"cell"`
	Digest  string  `json:"digest"`
	FullIPC float64 `json:"full_ipc"`
}

func pinPath(dir string, version int) string {
	return filepath.Join(dir, fmt.Sprintf("model-v%d.json", version))
}

// loadPins reads the pins recorded under version; a missing file is not
// an error (the run then checks only what does not depend on the seed).
func loadPins(dir string, version int) (*pinSet, error) {
	data, err := os.ReadFile(pinPath(dir, version))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pinSet
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("decoding pins %s: %w", pinPath(dir, version), err)
	}
	if p.ModelVersion != version || p.Seed != defaultSeed {
		return nil, fmt.Errorf("pins %s record model %d seed %d", pinPath(dir, version), p.ModelVersion, p.Seed)
	}
	return &p, nil
}

// recordPins runs one untimed pass of every workload on the default seed
// and writes the reference digests. It refuses to overwrite pins already
// recorded under the current model version: new pins belong to a new
// model version.
func recordPins(dir, outDir string) error {
	version := taglessdram.ModelVersion()
	path := pinPath(dir, version)
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("pins for model version %d already exist at %s; bump the model version instead of overwriting them", version, path)
	}
	scratch, err := makeScratch(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	out := &pinSet{ModelVersion: version, Seed: defaultSeed, GoVersion: runtime.Version()}
	for _, name := range []string{"figures-cold", "sampled-long", "service-resweep"} {
		// A one-nanosecond window runs exactly one pass or round.
		cfg := &runConfig{seed: defaultSeed, seconds: time.Nanosecond, scratch: scratch, pinning: true}
		m, err := workloads[name](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if m.failed > 0 {
			return fmt.Errorf("%s: %d ops failed their seed-independent checks: %v", name, m.failed, m.notes)
		}
		out.Figures = append(out.Figures, m.pins.Figures...)
		out.Sampled = append(out.Sampled, m.pins.Sampled...)
		out.Service = append(out.Service, m.pins.Service...)
		fmt.Fprintf(os.Stderr, "perfbench: pinned %s\n", name)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
