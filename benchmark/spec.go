package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is the measured-phase size the driver asks for.
const runSeconds = 20

// printSpec writes BENCHMARK.json from the tables the program reports
// from, so the file the driver reads cannot drift from what is measured:
//
//	go run ./benchmark -spec > BENCHMARK.json
func printSpec() error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, named{w.name, w.why})
	}
	for _, e := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, bounded{e.name, e.unit, e.better, e.bound})
	}
	for _, l := range layerMetrics {
		spec.PerLayer = append(spec.PerLayer, layer{l.name, l.unit, l.better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
