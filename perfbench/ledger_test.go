package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"gnnvault/internal/obs"
)

// TestLedgerMatchesMetrics keeps the three lists of per-layer metrics in
// step: the ones layerMetrics emits, the layer → end-to-end mapping in
// ledger.json, and the per_layer list in the repository's BENCHMARK.json.
func TestLedgerMatchesMetrics(t *testing.T) {
	cfg, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	var fromLedger []string
	for _, l := range cfg.Layers {
		if l.Moves == "" {
			t.Errorf("layer %s has no end-to-end mapping", l.Layer)
		}
		fromLedger = append(fromLedger, l.Metrics...)
	}
	sort.Strings(fromLedger)

	m := map[string]metric{}
	st := &replayStats{tr: newTracer(), probes: newTracer()}
	layerMetrics(m, wFleet, st, loadResult{}, counters{}, counters{}, &stack{}, &switchRecorder{ring: obs.NewRing(8)}, nil)
	var emitted []string
	for k := range m {
		emitted = append(emitted, k)
	}
	sort.Strings(emitted)
	if !reflect.DeepEqual(fromLedger, emitted) {
		t.Errorf("ledger.json layers list %v,\nlayerMetrics emits %v", fromLedger, emitted)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, p := range bench.PerLayer {
		declared = append(declared, p.Name)
	}
	sort.Strings(declared)
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("BENCHMARK.json per_layer %v,\nlayerMetrics emits %v", declared, emitted)
	}
}
