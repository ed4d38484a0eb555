package escapegate_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmp/internal/analysis/escapegate"
)

// writeModule lays out a throwaway module with one hotpath function
// that allocates (the returned slice escapes) and one cold function
// that also allocates but is not gated.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module escfix\n\ngo 1.24\n",
		"esc.go": `package escfix

// Grab allocates; it is gated.
//
//rmpvet:hotpath
func Grab(n int) []byte {
	return make([]byte, n)
}

// Cold allocates too, but nobody marked it.
func Cold(n int) []byte {
	return make([]byte, n)
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGateCatchesHotpathAllocation(t *testing.T) {
	dir := writeModule(t)
	diags, err := escapegate.Check(dir, []string{"."}, escapegate.DefaultBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "hotpath Grab heap-allocates") {
		t.Errorf("unexpected message: %s", d.Message)
	}
	if !strings.Contains(d.Message, "make([]byte, n)") {
		t.Errorf("message does not name the allocation: %s", d.Message)
	}
	if filepath.Base(d.Pos.Filename) != "esc.go" || d.Pos.Line == 0 {
		t.Errorf("bad position: %v", d.Pos)
	}
}

func TestBaselineSilencesReviewedEscape(t *testing.T) {
	dir := writeModule(t)
	baseline := "# reviewed\nGrab: make([]byte, n) escapes to heap\n"
	if err := os.WriteFile(filepath.Join(dir, escapegate.DefaultBaseline), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := escapegate.Check(dir, []string{"."}, escapegate.DefaultBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("baseline not honored, got: %v", diags)
	}
}

// TestStaleBaselineEntryIsAFinding: an entry that matches no escape —
// here one for a function that no longer exists — fails the gate and
// points at its line in the baseline file.
func TestStaleBaselineEntryIsAFinding(t *testing.T) {
	dir := writeModule(t)
	baseline := "# reviewed\nGrab: make([]byte, n) escapes to heap\nGone: make([]byte, n) escapes to heap\n"
	if err := os.WriteFile(filepath.Join(dir, escapegate.DefaultBaseline), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := escapegate.Check(dir, []string{"."}, escapegate.DefaultBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "stale baseline entry") || !strings.Contains(d.Message, "Gone:") {
		t.Errorf("unexpected message: %s", d.Message)
	}
	if d.Pos.Filename != escapegate.DefaultBaseline || d.Pos.Line != 3 {
		t.Errorf("bad position: %v, want %s:3", d.Pos, escapegate.DefaultBaseline)
	}
}

// TestRepoHotpathsClean is the repository's own allocation gate: the
// RS coder, the frame encoder, the mux writer/dispatcher, and the
// store accessors must produce no escapes beyond the committed
// baseline.
func TestRepoHotpathsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole tree")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := escapegate.Check(root, []string{"./..."}, escapegate.DefaultBaseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
