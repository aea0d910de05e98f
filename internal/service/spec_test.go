package service

import (
	"maxwe"
	"strings"
	"testing"
)

func TestNormalizeDefaultsAndValidation(t *testing.T) {
	// A bare fig7 spec inherits the paper's full grid.
	norm, err := JobSpec{Kind: KindFig7}.normalize()
	if err != nil {
		t.Fatalf("normalize(fig7): %v", err)
	}
	if len(norm.SWRPercents) != 6 || len(norm.WLs) != 4 {
		t.Fatalf("fig7 defaults = %d percents x %d wls, want 6x4", len(norm.SWRPercents), len(norm.WLs))
	}
	if norm.cellCount() != 24 {
		t.Fatalf("fig7 cellCount = %d, want 24", norm.cellCount())
	}

	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown kind", JobSpec{Kind: "fig9"}, "unknown job kind"},
		{"percent range", JobSpec{Kind: KindFig7, SWRPercents: []int{101}}, "out of [0, 100]"},
		{"dup wl", JobSpec{Kind: KindFig7, WLs: []string{"tlsr", "tlsr"}}, "duplicate wear leveler"},
		{"unknown wl", JobSpec{Kind: KindFig7, WLs: []string{"nope"}}, "unknown wear leveler"},
		{"no cells", JobSpec{Kind: KindCells}, "at least one cell"},
		{"empty key", JobSpec{Kind: KindCells, Cells: []CellSpec{{}}}, "empty key"},
		{"dup key", JobSpec{Kind: KindCells, Cells: []CellSpec{{Key: "a"}, {Key: "a"}}}, "duplicate cell key"},
		{"neg parallelism", JobSpec{Kind: KindFig8, Parallelism: -1}, "parallelism"},
		{"bad setup", JobSpec{Kind: KindFig8, Setup: &SetupSpec{VariationQ: 0.5}}, "variation q"},
		{"bad profile", JobSpec{Kind: KindFig8, Setup: &SetupSpec{Profile: "cauchy"}}, "profile"},
		{"huge setup", JobSpec{Kind: KindFig8, Setup: &SetupSpec{Regions: 1 << 30, LinesPerRegion: 1 << 20}}, "line limit"},
		{"overflowing setup", JobSpec{Kind: KindFig7, Setup: &SetupSpec{Regions: 1 << 62, LinesPerRegion: 1 << 62}}, "line limit"},
		{"setup one past limit", JobSpec{Kind: KindFig8, Setup: &SetupSpec{Regions: maxDeviceLines/32 + 1, LinesPerRegion: 32}}, "line limit"},
		{"huge cell", JobSpec{Kind: KindCells, Cells: []CellSpec{
			{Key: "ok", Config: maxwe.DefaultConfig()},
			{Key: "big", Config: maxwe.Config{Regions: 1 << 40, LinesPerRegion: 2}},
		}}, `cell "big"`},
	}
	for _, tc := range bad {
		if _, err := tc.spec.normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: normalize() err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// A geometry of exactly maxDeviceLines lines is accepted, for setups and
// cells alike; one more region is not (TestNormalizeDefaultsAndValidation).
func TestNormalizeAcceptsGeometryAtLimit(t *testing.T) {
	if _, err := (JobSpec{Kind: KindFig8, Setup: &SetupSpec{Regions: maxDeviceLines / 32, LinesPerRegion: 32}}).normalize(); err != nil {
		t.Fatalf("setup at the line limit rejected: %v", err)
	}
	cfg := maxwe.DefaultConfig()
	cfg.Regions, cfg.LinesPerRegion = 1, maxDeviceLines
	if _, err := (JobSpec{Kind: KindCells, Cells: []CellSpec{{Key: "edge", Config: cfg}}}).normalize(); err != nil {
		t.Fatalf("cell at the line limit rejected: %v", err)
	}
}

// TestFingerprintGolden pins the exact fingerprint bytes of two
// representative specs. These strings name checkpoint directories on
// every nvmd data dir in existence: if this test fails, a wire-format
// change (json tags, field set, canonicalization) has orphaned all
// stored checkpoints. Such a change must be deliberate — review the
// jsonschema golden diff (make lint-schema) and migrate or document the
// breakage before updating these constants.
func TestFingerprintGolden(t *testing.T) {
	fig7, err := JobSpec{Kind: KindFig7, Parallelism: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := JobSpec{Kind: KindCells, Cells: []CellSpec{
		{Key: "paper-default", Config: maxwe.DefaultConfig()},
	}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name string
		got  string
		want string
	}{
		{"fig7 default grid", fig7.fingerprint(),
			"nvmd/v1/fig7/da261202205384e6fe471eeb30d6c820f939bab197a0044af2fad7ae5a97b202"},
		{"cells paper default", cells.fingerprint(),
			"nvmd/v1/cells/8484f33bf88ccaa872fde54ff633e4f0ce379e79bb7c3c13a3642fa5e0129f16"},
	}
	for _, tc := range golden {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %q, want %q (checkpoint-breaking wire change?)", tc.name, tc.got, tc.want)
		}
	}
}

func TestFingerprintIgnoresRunnerPolicy(t *testing.T) {
	base, err := JobSpec{Kind: KindFig7}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.Parallelism, tuned.Retries, tuned.CellTimeoutMS = 8, 3, 5000
	if base.fingerprint() != tuned.fingerprint() {
		t.Fatal("fingerprint changed with runner policy; resumed jobs could not reuse their checkpoints")
	}
	federated := base
	federated.Federated = true
	if base.fingerprint() != federated.fingerprint() {
		t.Fatal("fingerprint changed with the federated flag; a federated job's checkpoint could not resume locally (or vice versa)")
	}
	smaller := base
	smaller.Setup = &SetupSpec{Regions: 64}
	smaller, err = smaller.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.fingerprint() == smaller.fingerprint() {
		t.Fatal("fingerprint ignored an experiment-shaping field")
	}
	if !strings.HasPrefix(base.fingerprint(), "nvmd/v1/fig7/") {
		t.Fatalf("fingerprint %q is missing its version prefix", base.fingerprint())
	}
}
