package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Run    string `json:"run"`    // the workload-run id
	Name   string `json:"name"`
	// StartNs and EndNs are host nanoseconds since the run started.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the traced code path.
type tracer struct {
	run   string
	start time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, start: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		StartNs: time.Since(t.start).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.start).Nanoseconds()
}

// foldRow is one line of the per-layer CPU table.
type foldRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

func foldTable(byLayer map[string]int64) []foldRow {
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	rows := make([]foldRow, 0, len(layers))
	for _, l := range layers {
		r := foldRow{Layer: l, Seconds: float64(byLayer[l]) / 1e9}
		if total > 0 {
			r.Share = float64(byLayer[l]) / float64(total)
		}
		rows = append(rows, r)
	}
	return rows
}

// writeTrace stores the run's spans and fold table as JSON in dir and
// prints the fold table to w.
func writeTrace(dir string, t *tracer, rows []foldRow, w io.Writer) error {
	fmt.Fprintf(w, "%-16s %9s %7s\n", "layer", "cpu_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.3f %6.1f%%\n", r.Layer, r.Seconds, 100*r.Share)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Run   string    `json:"run"`
		Spans []span    `json:"spans"`
		Fold  []foldRow `json:"fold"`
	}{t.run, t.spans, rows}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, t.run+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}
