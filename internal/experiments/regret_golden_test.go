package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateRegretGolden = flag.Bool("update", false, "rewrite testdata/regret_figures.golden")

const regretGoldenPath = "testdata/regret_figures.golden"

// TestRegretFiguresGolden pins the four regret figures at the quick
// configuration as `dolbie-bench -fig <id> -quick` renders them: the
// text and every CSV file, byte for byte. Regenerate with `go test
// ./internal/experiments -run RegretFiguresGolden -update` only when a
// change is meant to alter a figure.
func TestRegretFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{"regret", "regretcmp", "regretlp", "regretgeo"} {
		res, err := Run(id, Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&got, "=== %s text\n", id)
		if err := res.RenderText(&got); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := res.WriteCSV(dir); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "=== %s %s\n", id, f.Name())
			got.Write(raw)
		}
	}
	if *updateRegretGolden {
		if err := os.MkdirAll(filepath.Dir(regretGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(regretGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(regretGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("regret figures diverged from %s (%d vs %d bytes); regenerate with -update only for an intended change", regretGoldenPath, got.Len(), len(want))
	}
}
