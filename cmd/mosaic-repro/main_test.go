package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/estimates_golden.txt from the current output")

// goldenConfig is the scale of the estimates golden: every experiment of
// -exp all, shrunk until the two runs below take a few seconds together.
var goldenConfig = config{
	exp: "all", popN: 2000, sampleN: 800, epochs: 2, projections: 4,
	openSamples: 2, seed: 1,
}

// timings matches the "(1.2s)" in each experiment header.
var timings = regexp.MustCompile(`\([0-9.]+s\)`)

// TestEstimatesGolden runs every table, figure and ablation of mosaic-repro
// at goldenConfig with 1 and with 4 workers and requires both outputs, less
// their timings, to equal testdata/estimates_golden.txt byte for byte. A
// change that must not move an estimate leaves it alone; one that moves
// estimates on purpose regenerates it with -update and says which figures
// moved. The golden assumes amd64 float semantics (the committed file and
// CI agree); other architectures only compare the two worker counts.
func TestEstimatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment of mosaic-repro twice")
	}
	out := map[int]string{}
	for _, workers := range []int{1, 4} {
		c := goldenConfig
		c.workers = workers
		var b strings.Builder
		if err := run(&b, c); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out[workers] = timings.ReplaceAllString(b.String(), "")
	}
	if out[4] != out[1] {
		t.Fatalf("workers=4 output differs from workers=1:\n%s\nvs\n%s", out[4], out[1])
	}
	path := filepath.Join("testdata", "estimates_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden pins amd64 float bits; on %s only the worker counts are compared", runtime.GOARCH)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != string(want) {
		t.Fatalf("estimates differ from %s (regenerate with -update if they moved on purpose):\n%s", path, out[1])
	}
}
