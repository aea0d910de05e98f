package artifacts

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"maxwe/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/artifacts.golden from the current builders")

var goldenPath = filepath.Join("testdata", "artifacts.golden")

// TestArtifactsGolden renders every artifact at BenchSetup, in registry
// order, exactly as `figures -quick` prints them, and compares the text
// with testdata/artifacts.golden. Regenerate with
// `go test ./internal/artifacts/ -run TestArtifactsGolden -update`.
func TestArtifactsGolden(t *testing.T) {
	var got strings.Builder
	for _, a := range All() {
		out, err := a.Run(context.Background(), BenchSetup(), runner.Config{})
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		if out.Done != out.Total || out.Interrupted {
			t.Fatalf("%s: %d/%d sweep cells completed", a.ID, out.Done, out.Total)
		}
		got.WriteString(out.Text() + "\n")
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, builders produced %d", len(wantLines), len(gotLines))
	}
}

// TestIDs checks that every id is unique, found by Lookup, distinct from
// the figures -fig keyword "all", and safe as the file stem figures -o
// writes it under.
func TestIDs(t *testing.T) {
	safe := regexp.MustCompile(`^[a-z0-9_-]+$`)
	seen := map[string]bool{}
	for _, a := range All() {
		if !safe.MatchString(a.ID) || a.ID == "all" || seen[a.ID] {
			t.Errorf("id %q is unsafe, reserved or repeated", a.ID)
		}
		seen[a.ID] = true
		if got, ok := Lookup(a.ID); !ok || got.ID != a.ID {
			t.Errorf("Lookup(%q) = %q, %v", a.ID, got.ID, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error(`Lookup("nope") found an artifact`)
	}
}
