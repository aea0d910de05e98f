package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to Run as a checkpoint file.
// Run must never panic: it either succeeds (every cell resumed or
// computed), or reports the file as corrupt (ErrCorruptCheckpoint), or
// rejects it as belonging to another sweep.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range []string{
		`{"fingerprint":"sweep-v1","completed":{"a":{"key":"a","value":0}}}`,
		`{"fingerprint":"sweep-v1","completed":{"b":"not a row"}}`,
		`{"fingerprint":"sweep-v1","completed":null}`,
		`{"fingerprint":"other","completed":{}}`,
		`{"fingerprint":"sweep-v1","completed":[]}`,
		`{"fingerprint":"sweep-v1","comp`,
		`null`,
		``,
	} {
		f.Add([]byte(seed), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, par uint8) {
		cfg := Config{
			CheckpointPath: filepath.Join(t.TempDir(), "ckpt.json"),
			Fingerprint:    "sweep-v1",
			Parallelism:    int(par % 3),
		}
		if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), cfg, sweep(3))
		switch {
		case err == nil:
			if len(rep.Results) != 3 || rep.Interrupted {
				t.Fatalf("accepted checkpoint left report %+v", rep)
			}
		case errors.Is(err, ErrCorruptCheckpoint):
		case strings.Contains(err.Error(), "belongs to sweep"):
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
