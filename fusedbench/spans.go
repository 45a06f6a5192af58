package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark: a workload-generation
// pass, a server spawn→ready, an Engine.Run, a per-layer pass. Spans
// are recorded only from the benchmark's orchestrating goroutine, so a
// stack of open spans gives each new span its parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. It records only while on.
type tracer struct {
	on    bool
	run   string
	epoch time.Time
	spans []span
	open  []int // indexes into spans of the spans still open
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span and returns the function that closes it. With the
// tracer off both are no-ops.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID:     idx + 1,
		Parent: parent,
		Run:    t.run,
		Name:   name,
		Start:  int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
