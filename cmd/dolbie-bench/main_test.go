package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSeededReportsReproduce regenerates the reports whose every field
// is a pure function of their seeds — the virtual-time serving engine's
// and the wire traffic counts — and compares them byte for byte with the
// committed files, so any drift in those results fails the suite. The
// other modes are left out: -chaos runs on real deadline timers, and the
// -scale sweep, though it reproduces too, takes about 13 s on a 2-vCPU
// host (flat N=512 and tree N=4096 about 6 s each).
func TestSeededReportsReproduce(t *testing.T) {
	for _, bench := range []struct {
		committed string
		run       func(outPath string, out io.Writer) error
	}{
		{"BENCH_serve.json", runServeBench},
		{"BENCH_geo.json", runGeoBench},
		{"BENCH_wire.json", runWireBench},
	} {
		t.Run(bench.committed, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", bench.committed))
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), bench.committed)
			var log bytes.Buffer
			if err := bench.run(out, &log); err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("regenerated %s differs from the committed file (%d vs %d bytes); regenerate it with dolbie-bench if the change to the served output is intended", bench.committed, len(got), len(want))
			}
		})
	}
}
