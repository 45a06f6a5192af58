package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Snapshot is a point-in-time copy of every instrument in a registry.
// Writers keep going while it is taken; each value is one atomic load,
// so a snapshot is internally consistent per instrument (not across
// instruments, which live measurement never is).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is overflow
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket that crosses it — the standard fixed-bucket
// estimator. Returns 0 for an empty histogram; values in the overflow
// bucket clamp to the last bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	lower := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			if i < len(h.Bounds) {
				lower = h.Bounds[i]
			}
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			upper := h.Bounds[i]
			frac := (rank - seen) / float64(c)
			return lower + (upper-lower)*frac
		}
		seen += float64(c)
		if i < len(h.Bounds) {
			lower = h.Bounds[i]
		}
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snap freezes one histogram's current state — the single-instrument
// form of Registry.Snapshot, for callers (loadgen) that difference one
// histogram across a run without scraping the whole registry.
//
// Count is the sum of the bucket loads, not a separate load of the
// histogram's running count: writers in between would otherwise let the
// buckets run ahead of Count, and quantiles would come from a torn
// snapshot. Sum is loaded on its own and may lag or lead by the
// observations in flight.
func (h *Histogram) Snap() HistogramSnapshot {
	hs := HistogramSnapshot{
		Sum:    h.Sum(),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
		hs.Count += hs.Counts[i]
	}
	return hs
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.Do(func(name string, inst any) {
		switch v := inst.(type) {
		case *Counter:
			s.Counters[name] = v.Value()
		case *CounterFunc:
			s.Counters[name] = v.Value()
		case *ShardedCounter:
			s.Counters[name] = v.Value()
		case *Gauge:
			s.Gauges[name] = v.Value()
		case *Histogram:
			s.Histograms[name] = v.Snap()
		}
	})
	return s
}

// WriteJSON renders the snapshot as indented JSON (map keys sort, so
// output is stable for diffing two scrapes).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as line-protocol text: one sorted
// "name value" line per series, histograms expanded into .count, .sum
// and quantile lines — greppable mid-run output for scripts and logs.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+4*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, name+" "+strconv.FormatUint(v, 10))
	}
	for name, v := range s.Gauges {
		lines = append(lines, name+" "+strconv.FormatFloat(v, 'g', -1, 64))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			name+".count "+strconv.FormatUint(h.Count, 10),
			name+".sum "+strconv.FormatFloat(h.Sum, 'g', -1, 64),
			name+".p50 "+strconv.FormatFloat(h.Quantile(0.50), 'g', -1, 64),
			name+".p95 "+strconv.FormatFloat(h.Quantile(0.95), 'g', -1, 64),
			name+".p99 "+strconv.FormatFloat(h.Quantile(0.99), 'g', -1, 64),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Every takes a snapshot of r each interval and hands it to fn until ctx
// ends — the periodic export loop behind live stats logging. It blocks;
// run it in a goroutine.
func Every(ctx context.Context, r *Registry, interval time.Duration, fn func(Snapshot)) {
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			fn(r.Snapshot())
		}
	}
}
