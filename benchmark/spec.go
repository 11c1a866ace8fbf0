package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// metricDef is one metric as BENCHMARK.json defines it.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workload list and the metric definitions, which are the single
// source of metric units, directions and bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(benches) {
		return nil, fmt.Errorf("%s lists %d workloads, the program has %d", path, len(s.Workloads), len(benches))
	}
	for i, w := range s.Workloads {
		if w.Name != benches[i].name {
			return nil, fmt.Errorf("%s workload %d is %q, the program's is %q", path, i, w.Name, benches[i].name)
		}
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects the defined metrics from the computed values, in
// definition order; a defined metric the program does not compute is
// an error, so BENCHMARK.json and the program cannot drift apart.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is defined in BENCHMARK.json but not computed", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records what the timings were measured on.
type host struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisHost() host {
	return host{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// report is one workload's full record, as -json writes it and
// -compare and -summary read it.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Golden says whether outputs were compared with committed goldens.
	Golden string `json:"golden"`
	Host   host   `json:"host"`
	// Scale turned the run's raw host times into the reported reference
	// seconds.
	Scale float64 `json:"scale"`
	result
	// Executions counts each cell's untraced and traced executions.
	Executions map[string][2]int  `json:"executions"`
	Out        map[string]float64 `json:"out"`
	Errors     []string           `json:"errors,omitempty"`
}
