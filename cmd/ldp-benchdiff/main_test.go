package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) map[string]result {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const benchHeader = "goos: linux\ngoarch: amd64\npkg: ldplayer/internal/zone\n"

// TestProcsMismatchRefused: a baseline recorded at GOMAXPROCS=1 (no name
// suffix) and a new run at -cpu 2 (suffix -2) must not be compared;
// the same core count on both sides must.
func TestProcsMismatchRefused(t *testing.T) {
	base := writeBench(t, "bench.out", benchHeader+
		"BenchmarkQueryPositive \t 1000\t 1200 ns/op\t 64 B/op\t 2 allocs/op\n")
	if got := base["ldplayer/internal/zone.BenchmarkQueryPositive"].procs; got != 1 {
		t.Fatalf("unsuffixed name parsed as GOMAXPROCS=%d, want 1", got)
	}
	two := writeBench(t, "bench.new", benchHeader+
		"BenchmarkQueryPositive-2 \t 1000\t 1100 ns/op\t 64 B/op\t 2 allocs/op\n")
	if got := two["ldplayer/internal/zone.BenchmarkQueryPositive"].procs; got != 2 {
		t.Fatalf("-2 suffix parsed as GOMAXPROCS=%d, want 2", got)
	}
	const key = "ldplayer/internal/zone.BenchmarkQueryPositive"
	err := sameProcs(key, base[key], two[key])
	if err == nil {
		t.Fatal("runs at GOMAXPROCS 1 and 2 were accepted for comparison")
	}
	for _, want := range []string{"GOMAXPROCS=1", "at 2", "-cpu 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if err := sameProcs(key, base[key], base[key]); err != nil {
		t.Errorf("same core count refused: %v", err)
	}
}
