package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Report accumulates the structured results of the experiments a Runner has
// executed, for machine-readable export (cmd/experiments -json). Keys are
// the experiment ids of IDs().
type Report struct {
	mu      sync.Mutex
	results map[string]interface{}
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{results: map[string]interface{}{}}
}

// Record stores one experiment's result under its id, replacing any
// previous entry.
func (r *Report) Record(id string, result interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[id] = result
}

// Len returns the number of recorded experiments.
func (r *Report) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

// WriteJSON emits the recorded results as indented JSON, keyed by
// experiment id, with a metadata envelope.
func (r *Report) WriteJSON(w io.Writer, scale string, benchmarks []string) error {
	// Snapshot the map under the lock and encode outside it: w may be a
	// slow client and Encode serialises arbitrary result payloads, so
	// holding r.mu across it would stall every concurrent Record.
	r.mu.Lock()
	results := make(map[string]interface{}, len(r.results))
	//lint:ignore detmap map-to-map copy is order-independent; the encoder sorts keys on output
	for id, res := range r.results {
		results[id] = res
	}
	r.mu.Unlock()
	envelope := struct {
		Paper      string                 `json:"paper"`
		Scale      string                 `json:"scale"`
		Benchmarks []string               `json:"benchmarks"`
		Results    map[string]interface{} `json:"results"`
	}{
		Paper:      "Efficacy of Statistical Sampling on Contemporary Workloads: The Case of SPEC CPU2017 (IISWC 2019)",
		Scale:      scale,
		Benchmarks: benchmarks,
		Results:    results,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope); err != nil {
		return fmt.Errorf("experiments: encode report: %w", err)
	}
	return nil
}
