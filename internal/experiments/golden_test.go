package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

// TestPaperOutputsGolden pins the paper reproduction byte for byte:
// Figures 1-5 and the §4.3 decomposition, exactly as rmpbench prints
// them. The shape tests above say the figures look like the paper's;
// this one says a change moved none of their numbers. After a change
// that is meant to move them, regenerate with `make golden` (go test
// -run TestPaperOutputsGolden -update) and review the diff.
func TestPaperOutputsGolden(t *testing.T) {
	for name, table := range map[string]func() *Table{
		"fig1": Fig1, "fig2": Fig2, "fig3": Fig3, "fig4": Fig4, "fig5": Fig5,
		"decomp": Decomp,
	} {
		got := table().String() + "\n" // rmpbench's Println
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s moved; got:\n%s\nwant (%s):\n%s", name, got, path, want)
		}
	}
}
