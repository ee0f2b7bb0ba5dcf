package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSeededReportsReproduce regenerates the reports whose every field
// is a pure function of the seeded virtual-time serving engine and
// compares them byte for byte with the committed files, so any drift in
// the seeded serving results fails the suite. The other modes are left
// out: -chaos runs on real deadline timers, and -scale and -wire record
// wall-clock timings.
func TestSeededReportsReproduce(t *testing.T) {
	for _, bench := range []struct {
		committed string
		run       func(outPath string, out io.Writer) error
	}{
		{"BENCH_serve.json", runServeBench},
		{"BENCH_geo.json", runGeoBench},
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
