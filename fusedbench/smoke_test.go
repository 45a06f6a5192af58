package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smokeScale is about one second of low-rate load per workload.
var smokeScale = scale{
	baseRate:    500,
	delegations: 2000,
	hotNames:    100,
	stepLen:     500 * time.Millisecond,
	maxSteps:    2,
	setups:      2,
	hotSetups:   2,
	gateSample:  50,
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload untraced and traced at smoke scale
// against a freshly built ldp-server. It checks that each metric
// BENCHMARK.json names is emitted with its unit, that the correctness
// gate passes (run returns no error), and that the traced spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ldp-server and runs live servers")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ldp-server")
	if out, err := exec.Command("go", "build", "-o", bin, "ldplayer/cmd/ldp-server").CombinedOutput(); err != nil {
		t.Fatalf("build ldp-server: %v\n%s", err, out)
	}
	for _, w := range []string{"root-udp", "root-tcp", "tld-hot"} {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), options{
				workload: w, seed: 7, seconds: 1, traced: traced,
				serverBin: bin, work: filepath.Join(tmp, "work"), scale: smokeScale,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w, traced, len(res.metrics), len(want))
			}
			if res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w, traced, res.attempted)
			}
			if traced {
				checkSpans(t, res.spans)
			}
		}
	}
}

// checkSpans asserts every span's parent exists and encloses it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] not inside parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, n := range []string{"run", "gen", "setup", "e2e", "replay.base0", "gate", "layer.server.handle"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}
