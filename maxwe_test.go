package maxwe

import (
	"context"
	"math"
	"strings"
	"testing"
)

// smallConfig keeps facade tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Regions = 128
	cfg.LinesPerRegion = 8
	cfg.MeanEndurance = 300
	return cfg
}

func TestDefaultConfigBuilds(t *testing.T) {
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Config)
	}{
		{"regions", func(c *Config) { c.Regions = 0 }},
		{"lines", func(c *Config) { c.LinesPerRegion = -1 }},
		{"endurance", func(c *Config) { c.MeanEndurance = 0 }},
		{"variation", func(c *Config) { c.VariationQ = 0.5 }},
		{"sparefrac", func(c *Config) { c.SpareFraction = 0.6 }},
		{"swrfrac", func(c *Config) { c.SWRFraction = 1.5 }},
		{"psi", func(c *Config) { c.Psi = 0 }},
		{"scheme", func(c *Config) { c.Scheme = "bogus" }},
		{"attack", func(c *Config) { c.Attack = "bogus" }},
		{"leveler", func(c *Config) { c.WearLeveling = "bogus" }},
		{"pcd+wl", func(c *Config) { c.Scheme = "pcd"; c.WearLeveling = "tlsr" }},
	}
	for _, m := range mods {
		cfg := smallConfig()
		m.mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: invalid config accepted", m.name)
		}
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, scheme := range []string{"max-we", "pcd", "ps-random", "ps-worst", "ps-best", "none"} {
		cfg := smallConfig()
		cfg.Scheme = scheme
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		res := sys.RunLifetime()
		if !res.Failed || res.UserWrites <= 0 {
			t.Fatalf("%s: run did not complete: %+v", scheme, res)
		}
		if res.NormalizedLifetime <= 0 || res.NormalizedLifetime >= 1 {
			t.Fatalf("%s: normalized lifetime %v out of (0,1)", scheme, res.NormalizedLifetime)
		}
	}
}

func TestAllLevelersRun(t *testing.T) {
	for _, wl := range []string{"", "identity", "start-gap", "tlsr", "pcm-s", "bwl", "wawl",
		"twl", "stress-aware", "partitioned-start-gap"} {
		cfg := smallConfig()
		cfg.WearLeveling = wl
		cfg.Attack = "bpa"
		cfg.MaxUserWrites = 50_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%q: %v", wl, err)
		}
		res := sys.RunLifetime()
		if res.UserWrites <= 0 {
			t.Fatalf("%q: no writes served", wl)
		}
	}
	// The faithful security-refresh levelers need a power-of-two user
	// space: run them over the unprotected scheme (1024 lines).
	for _, wl := range []string{"security-refresh", "tlsr-exact"} {
		cfg := smallConfig()
		cfg.Scheme = "none"
		cfg.WearLeveling = wl
		cfg.Attack = "bpa"
		cfg.MaxUserWrites = 50_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%q: %v", wl, err)
		}
		if res := sys.RunLifetime(); res.UserWrites <= 0 {
			t.Fatalf("%q: no writes served", wl)
		}
	}
}

func TestSecurityRefreshNeedsPowerOfTwo(t *testing.T) {
	cfg := smallConfig() // max-we leaves a non-power-of-two user space
	cfg.WearLeveling = "security-refresh"
	if _, err := New(cfg); err == nil {
		t.Fatal("security-refresh accepted a non-power-of-two user space")
	}
}

func TestPartialUAAFacade(t *testing.T) {
	cfg := smallConfig()
	cfg.Attack = "partial-uaa"
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := sys.RunLifetime(); !res.Failed {
		t.Fatal("partial-uaa run did not complete")
	}
	cfg.AttackCoverage = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero coverage accepted")
	}
}

func TestAllAttacksRun(t *testing.T) {
	for _, atk := range []string{"uaa", "bpa", "repeated", "random", "hotcold"} {
		cfg := smallConfig()
		cfg.Attack = atk
		cfg.MaxUserWrites = 30_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", atk, err)
		}
		if res := sys.RunLifetime(); res.UserWrites <= 0 {
			t.Fatalf("%s: no writes served", atk)
		}
	}
}

func TestHeadlineResult(t *testing.T) {
	// The library's headline reproduction: under UAA, Max-WE with 10%
	// spares multiplies lifetime by roughly the paper's 9.5X over the
	// unprotected device.
	unprot := smallConfig()
	unprot.Scheme = "none"
	sysU, err := New(unprot)
	if err != nil {
		t.Fatal(err)
	}
	base := sysU.RunLifetime().NormalizedLifetime

	sysM, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	protected := sysM.RunLifetime().NormalizedLifetime

	improvement := protected / base
	if improvement < 6 || improvement > 14 {
		t.Fatalf("Max-WE improvement %vX outside the paper's ballpark (9.5X)", improvement)
	}
}

func TestPowerLawProfileOption(t *testing.T) {
	cfg := smallConfig()
	cfg.LinearProfile = false
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.Profile().Ratio(); r > cfg.VariationQ*1.3 {
		t.Fatalf("power-law profile ratio %v far above q", r)
	}
}

func TestAccessors(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Profile() == nil {
		t.Fatal("nil profile")
	}
	if sys.UserLines() <= 0 || sys.UserLines() >= sys.Profile().Lines() {
		t.Fatalf("UserLines = %d with 10%% spares over %d lines",
			sys.UserLines(), sys.Profile().Lines())
	}
	if sys.IdealLifetime() <= 0 {
		t.Fatal("IdealLifetime not positive")
	}
}

func TestMappingOverheadMatchesPaperShape(t *testing.T) {
	o := PaperOverhead()
	if got := o.Reduction(); math.Abs(got-0.85) > 0.01 {
		t.Fatalf("paper overhead reduction = %v", got)
	}
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	so := sys.MappingOverhead()
	if so.TotalBits() >= so.TraditionalBits() {
		t.Fatal("hybrid mapping not smaller than line-level mapping")
	}
}

func TestAnalyticAgreesWithSimulation(t *testing.T) {
	// The simulated unprotected UAA lifetime must sit near the analytic
	// Equation 5 value for the same q.
	cfg := smallConfig()
	cfg.Scheme = "none"
	cfg.SpareFraction = 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an := sys.Analytic().UAARatio()
	got := sys.RunLifetime().NormalizedLifetime
	if math.Abs(got-an) > 0.01 {
		t.Fatalf("simulated %v vs analytic %v", got, an)
	}
}

func TestMaxUserWritesTruncates(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxUserWrites = 1000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunLifetime()
	if res.Failed || res.UserWrites != 1000 {
		t.Fatalf("truncation not honored: %+v", res)
	}
}

func TestErrorMessagesNamePackage(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheme = "bogus"
	_, err := New(cfg)
	if err == nil || !strings.HasPrefix(err.Error(), "maxwe:") {
		t.Fatalf("error %v does not identify its origin", err)
	}
}

func TestMonitorFacade(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{WindowSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var verdict = VerdictBenign
	for i := 0; i < 64; i++ {
		if v, done := m.Observe(i); done {
			verdict = v
		}
	}
	if verdict != VerdictUAALike {
		t.Fatalf("sequential stream verdict %v, want uaa-like", verdict)
	}
	if _, err := NewMonitor(MonitorConfig{WindowSize: 1}); err == nil {
		t.Fatal("bad monitor config accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		cfg := smallConfig()
		cfg.Attack = "bpa"
		cfg.WearLeveling = "tlsr"
		cfg.Seed = 99
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.RunLifetime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

// TestConfigFingerprintGolden pins the exact fingerprint of the paper's
// default configuration. This string keys nvmsim's memoized seed-sweep
// cells: if it fails, the Config wire format (json tags, field set) or
// the engine schema version changed, and every cached result is either
// orphaned or — if an old key now names a different computation — stale.
// Bump sim.EngineSchemaVersion for behavior changes, then update this
// constant.
func TestConfigFingerprintGolden(t *testing.T) {
	const want = "maxwe-config/v1/158393a7a7943c03640201ba7fb37f89f20fc1745298bd2160b65798a3bd0a57"
	if got := DefaultConfig().Fingerprint(); got != want {
		t.Fatalf("DefaultConfig fingerprint = %q, want %q (cache-key-breaking change?)", got, want)
	}
	tuned := DefaultConfig()
	tuned.Seed++
	if tuned.Fingerprint() == want {
		t.Fatal("different seeds share a fingerprint; the cache would serve seed 1's result for seed 2")
	}
}

// TestConfigCell pins the runner cell of a Config: its key and
// fingerprint, a run equal to RunLifetime, and a canceled run that
// reports the context's error instead of a partial lifetime.
func TestConfigCell(t *testing.T) {
	cfg := smallConfig()
	cell := cfg.Cell("k")
	if cell.Key != "k" || cell.Fingerprint != cfg.Fingerprint() {
		t.Fatalf("cell key %q fingerprint %q", cell.Key, cell.Fingerprint)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.RunLifetime()
	got, err := cell.Run(context.Background())
	if err != nil || got != want {
		t.Fatalf("cell run %+v, %v; want %+v", got, err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := cell.Run(ctx); err != context.Canceled || got != (Result{}) {
		t.Fatalf("canceled cell run %+v, %v", got, err)
	}
}
