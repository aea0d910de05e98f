package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"maxwe/internal/attack"
	"maxwe/internal/faultinject"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/results.golden from the current engine")

// goldenPath holds one line per cell: the cell key and its full
// sim.Result as JSON.
var goldenPath = filepath.Join("testdata", "results.golden")

// goldenCell is one simulation whose whole Result the golden file pins.
type goldenCell struct {
	key string
	cfg func() sim.Config
}

// goldenCells lists every Figure 7 and Figure 8 cell, built exactly as
// Fig7Cells and Fig8Cells build them, plus the unleveled attack × scheme
// matrix and two fault-injected cells, all at QuickSetup scale.
func goldenCells(s Setup) []goldenCell {
	p := s.Profile()
	bpa := func(sch func() spare.Scheme, wl string) func() sim.Config {
		return func() sim.Config {
			sc := sch()
			return sim.Config{
				Profile: p,
				Scheme:  sc,
				Leveler: NewLeveler(wl, sc, p, s.Psi, xrand.New(s.Seed+2)),
				Attack:  attack.DefaultBPA(xrand.New(s.Seed + 3)),
			}
		}
	}
	var cells []goldenCell
	for _, wl := range WLNames() {
		for _, pct := range Fig7DefaultPercents() {
			sch := func() spare.Scheme {
				opts := spare.DefaultMaxWEOptions()
				opts.SWRFraction = float64(pct) / 100
				return spare.NewMaxWE(p, opts)
			}
			cells = append(cells, goldenCell{fmt.Sprintf("fig7/%s/%d", wl, pct), bpa(sch, wl)})
		}
	}
	for _, wl := range WLNames() {
		for _, scheme := range SchemeNames() {
			sch := func() spare.Scheme { return newScheme(scheme, p, s.Seed) }
			cells = append(cells, goldenCell{fmt.Sprintf("fig8/%s/%s", wl, scheme), bpa(sch, wl)})
		}
	}

	spareLines := p.Lines() / 10
	schemes := map[string]func() spare.Scheme{
		"max-we":    func() spare.Scheme { return spare.NewMaxWE(p, spare.DefaultMaxWEOptions()) },
		"pcd":       func() spare.Scheme { return spare.NewPCD(p.Lines(), p.Lines()-spareLines) },
		"ps-worst":  func() spare.Scheme { return spare.NewPS(p, spareLines, spare.PSWorst, nil) },
		"ps-random": func() spare.Scheme { return spare.NewPS(p, spareLines, spare.PSRandom, xrand.New(s.Seed+4)) },
	}
	attacks := map[string]func() attack.Attack{
		"uaa":         func() attack.Attack { return attack.NewUAA() },
		"partial-uaa": func() attack.Attack { return attack.NewPartialUAA(0.95) },
		"bpa":         func() attack.Attack { return attack.DefaultBPA(xrand.New(s.Seed + 5)) },
		"random":      func() attack.Attack { return attack.NewRandomUniform(xrand.New(s.Seed + 5)) },
		"hotcold":     func() attack.Attack { return attack.NewHotCold(p.Lines(), 1.1, xrand.New(s.Seed+5)) },
		"repeated":    func() attack.Attack { return attack.NewRepeated(0) },
	}
	for _, a := range []string{"uaa", "partial-uaa", "bpa", "random", "hotcold", "repeated"} {
		for _, sc := range []string{"max-we", "pcd", "ps-worst", "ps-random"} {
			mkAttack, mkScheme := attacks[a], schemes[sc]
			cells = append(cells, goldenCell{"unleveled/" + a + "/" + sc, func() sim.Config {
				return sim.Config{Profile: p, Scheme: mkScheme(), Attack: mkAttack()}
			}})
		}
	}

	faulty := func(a, sc string, fc faultinject.Config) func() sim.Config {
		return func() sim.Config {
			plan, err := faultinject.NewPlan(fc)
			if err != nil {
				panic(err)
			}
			return sim.Config{Profile: p, Scheme: schemes[sc](), Attack: attacks[a](), Faults: plan}
		}
	}
	cells = append(cells,
		goldenCell{"faults/uaa/max-we", faulty("uaa", "max-we",
			faultinject.Config{Seed: s.Seed, TransientProb: 0.01, StuckAtProb: 0.0005, MetadataProb: 0.0005})},
		goldenCell{"faults/bpa/ps-random", faulty("bpa", "ps-random",
			faultinject.Config{Seed: s.Seed + 1, StuckAtProb: 0.001})},
	)
	return cells
}

// TestResultsGolden pins the full Result of every Figure 7/8 cell and of
// the unleveled attack × scheme matrix. The engine-vs-reference
// cross-validation in internal/sim shares the levelers, schemes, attacks
// and samplers with the engine, so it cannot see a change in any of
// them; this file can. A change that is meant to alter results bumps
// sim.EngineSchemaVersion and regenerates the file with
// `go test ./internal/experiments/ -run TestResultsGolden -update-golden`.
func TestResultsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCells(QuickSetup()) {
		res, err := sim.Run(c.cfg())
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s\n", c.key, b)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, engine produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
