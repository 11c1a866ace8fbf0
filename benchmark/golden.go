package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
)

// goldenSeeds are the seeds whose outputs are committed.
const goldenSeeds = 10

// golden holds the committed simulated outputs:
// workload -> seed -> cell -> output name -> value.
type golden map[string]map[string]map[string]map[string]float64

func readGolden(path string) (golden, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := golden{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g golden) has(workload string, seed uint64) bool {
	_, ok := g[workload][strconv.FormatUint(seed, 10)]
	return ok
}

// check compares a cell's outputs with the committed ones exactly:
// the simulator is deterministic, so any difference is a change in
// simulated behaviour.
func (g golden) check(workload string, seed uint64, cell string, out map[string]float64) error {
	want, ok := g[workload][strconv.FormatUint(seed, 10)][cell]
	if !ok {
		return fmt.Errorf("no golden outputs for this cell at seed %d", seed)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := out[k]; !ok || got != want[k] {
			return fmt.Errorf("output %s = %v, golden %v", k, got, want[k])
		}
	}
	if len(out) != len(want) {
		return fmt.Errorf("%d outputs, golden has %d", len(out), len(want))
	}
	return nil
}

// record stores one passing sweep's outputs as the golden for its seed.
func (g golden) record(r *run) error {
	if r.failed > 0 {
		return fmt.Errorf("%s seed %d: %d failed cells, not recording: %v", r.bench.name, r.seed, r.failed, r.errs)
	}
	if g[r.bench.name] == nil {
		g[r.bench.name] = map[string]map[string]map[string]float64{}
	}
	cells := map[string]map[string]float64{}
	for _, cr := range r.cells {
		cells[cr.cell.name] = cr.plain[0].out
	}
	g[r.bench.name][strconv.FormatUint(r.seed, 10)] = cells
	return nil
}

func (g golden) write(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
