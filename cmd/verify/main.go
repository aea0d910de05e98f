// Command verify is the reproduction gate: it re-derives the paper's
// anchor numbers and orderings from scratch and reports PASS/FAIL for
// each, exiting non-zero if any check fails. It is what a reviewer runs
// first.
//
//	go run ./cmd/verify
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"maxwe/internal/analytic"
	"maxwe/internal/artifacts"
	"maxwe/internal/attack"
	"maxwe/internal/detect"
	"maxwe/internal/ecp"
	"maxwe/internal/experiments"
	"maxwe/internal/mapping"
	"maxwe/internal/runner"
	"maxwe/internal/sim"
	"maxwe/internal/spare"
	"maxwe/internal/xrand"
)

type check struct {
	name string
	run  func() (detail string, ok bool)
}

func main() {
	s := artifacts.BenchSetup()

	checks := []check{
		{"Eq 5: analytic UAA ratio at q=50 is 3.9%", func() (string, bool) {
			got := analytic.FromPQ(1e6, 0, 50).UAARatio()
			return fmt.Sprintf("got %.4f", got), math.Abs(got-0.0392) < 0.0005
		}},
		{"§4.3: analytic triple at p=0.1, q=50 is 38.1/22.2/20.8%", func() (string, bool) {
			par := analytic.FromPQ(1e6, 0.1, 50)
			a, b, c := par.NormalizedMaxWE(), par.NormalizedPCDPS(), par.NormalizedPSWorst()
			return fmt.Sprintf("got %.3f/%.3f/%.3f", a, b, c),
				math.Abs(a-0.381) < 0.002 && math.Abs(b-0.222) < 0.002 && math.Abs(c-0.208) < 0.002
		}},
		{"§5.3.2: hybrid table ~0.16 MB vs ~1.1 MB, ~85% smaller", func() (string, bool) {
			o := mapping.PaperOverhead()
			h := mapping.BitsToMB(o.TotalBits())
			f := mapping.BitsToMB(o.TraditionalBits())
			return fmt.Sprintf("got %.3f MB vs %.3f MB (-%.1f%%)", h, f, o.Reduction()*100),
				math.Abs(h-0.16) < 0.01 && math.Abs(f-1.1) < 0.01 && math.Abs(o.Reduction()-0.85) < 0.015
		}},
		{"§2.2.2: ECP-6 capacity overhead is 11.9%", func() (string, bool) {
			got := ecp.Overhead(512, 6)
			return fmt.Sprintf("got %.3f", got), math.Abs(got-0.119) < 0.001
		}},
		{"simulated unprotected UAA lifetime matches Eq 5", func() (string, bool) {
			p := s.Profile()
			res, err := sim.Run(sim.Config{
				Profile: p, Scheme: spare.NewNone(p.Lines()), Attack: attack.NewUAA(),
			})
			if err != nil {
				return err.Error(), false
			}
			return fmt.Sprintf("got %.4f vs analytic 0.0392", res.NormalizedLifetime),
				math.Abs(res.NormalizedLifetime-0.0392) < 0.01
		}},
		{"§5.3.1: UAA ordering max-we > pcd/ps > ps-worst > none, ~9.5X", func() (string, bool) {
			rows := experiments.TableUAA(s)
			by := map[string]experiments.UAARow{}
			for _, r := range rows {
				by[r.Scheme] = r
			}
			ok := by["max-we"].Normalized > by["pcd/ps"].Normalized &&
				by["pcd/ps"].Normalized > by["ps-worst"].Normalized &&
				by["ps-worst"].Normalized > by["none"].Normalized &&
				by["max-we"].ImprovementX > 6 && by["max-we"].ImprovementX < 13
			return fmt.Sprintf("got improvement %.1fX", by["max-we"].ImprovementX), ok
		}},
		{"Fig 6: lifetime monotone in the spare budget", func() (string, bool) {
			rows := experiments.Fig6(s, []int{0, 10, 20, 30, 40, 50})
			for i := 1; i < len(rows); i++ {
				if rows[i].Normalized < rows[i-1].Normalized {
					return fmt.Sprintf("dropped at %d%%", rows[i].SparePercent), false
				}
			}
			return fmt.Sprintf("0%%: %.3f .. 50%%: %.3f",
				rows[0].Normalized, rows[len(rows)-1].Normalized), true
		}},
		{"Fig 7: wawl > bwl > tlsr under BPA at SWR=0", func() (string, bool) {
			rows, rep, err := experiments.Fig7Sweep(context.Background(), runner.Config{Parallelism: 1},
				s, []int{0}, experiments.WLNames())
			if err != nil || len(rep.Failed) != 0 {
				return fmt.Sprintf("sweep failed: %v %v", err, rep.Failed), false
			}
			by := map[string]float64{}
			for _, r := range rows {
				by[r.WL] = r.Normalized
			}
			return fmt.Sprintf("got tlsr %.3f, bwl %.3f, wawl %.3f",
					by["tlsr"], by["bwl"], by["wawl"]),
				by["wawl"] > by["bwl"] && by["bwl"] > by["tlsr"]
		}},
		{"Fig 8: gmean ordering max-we > pcd/ps > ps-worst under BPA", func() (string, bool) {
			_, gmeans, rep, err := experiments.Fig8Sweep(context.Background(), runner.Config{Parallelism: 1}, s)
			if err != nil || len(rep.Failed) != 0 {
				return fmt.Sprintf("sweep failed: %v %v", err, rep.Failed), false
			}
			return fmt.Sprintf("got %.3f/%.3f/%.3f",
					gmeans["max-we"], gmeans["pcd/ps"], gmeans["ps-worst"]),
				gmeans["max-we"] > gmeans["pcd/ps"] && gmeans["pcd/ps"] > gmeans["ps-worst"]
		}},
		{"§5.3.1 ordering holds across endurance distributions", func() (string, bool) {
			for _, ps := range experiments.ProfileSensitivity(s) {
				by := map[string]float64{}
				for _, r := range ps.Rows {
					by[r.Scheme] = r.Normalized
				}
				if !(by["max-we"] > by["pcd/ps"] && by["pcd/ps"] > by["none"]) {
					return fmt.Sprintf("broken under %s", ps.ProfileName), false
				}
			}
			return "linear, power-law, lognormal all ordered", true
		}},
		{"detector: UAA and BPA flagged in first window, benign clean", func() (string, bool) {
			flag := func(a attack.Attack) detect.Verdict {
				m, err := detect.NewMonitor(detect.Config{})
				if err != nil {
					return detect.Benign
				}
				for i := 0; i < 1024; i++ {
					if v, done := m.Observe(a.Next(1 << 16)); done {
						return v
					}
				}
				return detect.Benign
			}
			uaa := flag(attack.NewUAA())
			bpa := flag(attack.DefaultBPA(xrand.New(1)))
			benign := flag(attack.NewHotCold(1<<16, 1.1, xrand.New(2)))
			return fmt.Sprintf("uaa=%v bpa=%v zipf=%v", uaa, bpa, benign),
				uaa == detect.UAALike && bpa == detect.HammerLike && benign == detect.Benign
		}},
	}

	failures := 0
	for _, c := range checks {
		detail, ok := c.run()
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("[%s] %s — %s\n", status, c.name, detail)
	}
	if failures > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failures, len(checks))
		os.Exit(1)
	}
	fmt.Printf("\nall %d checks passed\n", len(checks))
}
