package spare

import (
	"fmt"
	"slices"
	"testing"

	"maxwe/internal/endurance"
	"maxwe/internal/xrand"
)

// namedScheme is one scheme under test.
type namedScheme struct {
	kind string
	s    Scheme
}

// bindingSchemes builds one of every scheme and geometry over p: None, the
// three PS policies, PCD and Max-WE at its default split, all-SWR,
// all-dynamic and without weak priority.
func bindingSchemes(p *endurance.Profile, seed uint64) []namedScheme {
	n := p.Lines()
	maxwe := func(edit func(*MaxWEOptions)) Scheme {
		o := DefaultMaxWEOptions()
		o.SpareFraction = 0.25
		edit(&o)
		return NewMaxWE(p, o)
	}
	return []namedScheme{
		{"none", NewNone(n)},
		{"ps-random", NewPS(p, n/8, PSRandom, xrand.New(seed))},
		{"ps-worst", NewPS(p, n/8, PSWorst, nil)},
		{"ps-best", NewPS(p, n/8, PSBest, nil)},
		{"pcd", NewPCD(n, n-n/8)},
		{"maxwe", maxwe(func(*MaxWEOptions) {})},
		{"maxwe-allswr", maxwe(func(o *MaxWEOptions) { o.SWRFraction = 1 })},
		{"maxwe-alldyn", maxwe(func(o *MaxWEOptions) { o.SWRFraction = 0 })},
		{"maxwe-random", maxwe(func(o *MaxWEOptions) {
			o.WeakPriority = false
			o.Rand = xrand.New(seed + 1)
		})},
	}
}

// checkBinding asserts the invariants of a scheme's live slot→line table:
// one entry per user slot, Access reads it, its entries are distinct
// device lines none of which has worn out, and under Max-WE each entry is
// the slot's translation through the mapping tables.
func checkBinding(t *testing.T, name string, s Scheme, lines int, worn []bool) {
	t.Helper()
	b := s.Bindings()
	if len(b) != s.UserLines() {
		t.Fatalf("%s: %d bindings for %d user lines", name, len(b), s.UserLines())
	}
	seen := make([]bool, lines)
	for u, line := range b {
		if got := s.Access(u); got != int(line) {
			t.Fatalf("%s: Access(%d) = %d, binding %d", name, u, got, line)
		}
		if line < 0 || int(line) >= lines {
			t.Fatalf("%s: slot %d bound to line %d outside the device", name, u, line)
		}
		if seen[line] {
			t.Fatalf("%s: line %d bound to two slots", name, line)
		}
		seen[line] = true
		if worn[line] {
			t.Fatalf("%s: slot %d still bound to worn line %d", name, u, line)
		}
		if m, ok := s.(*MaxWEScheme); ok {
			if want := m.Mapping().Translate(m.BaseLine(u)); int(line) != want {
				t.Fatalf("%s: slot %d bound to %d, tables translate its base to %d", name, u, line, want)
			}
		}
	}
}

// TestBindingsFollowWearOuts drives random wear-out sequences through
// every scheme until it runs out of spares, checking the table after each
// call. A successful OnWearOut(u) retires u's line and consumes one spare;
// a failed one leaves the table as it was.
func TestBindingsFollowWearOuts(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		p := endurance.DefaultModel().Sample(16, 8, xrand.New(seed)).Shuffled(xrand.New(seed + 1))
		for _, ns := range bindingSchemes(p, seed) {
			kind, s := ns.kind, ns.s
			worn := make([]bool, p.Lines())
			src := xrand.New(seed + 2)
			checkBinding(t, fmt.Sprintf("%s seed %d fresh", kind, seed), s, p.Lines(), worn)
			for step := 0; ; step++ {
				name := fmt.Sprintf("%s seed %d step %d", kind, seed, step)
				u := src.Intn(s.UserLines())
				before := slices.Clone(s.Bindings())
				used := s.SpareLinesUsed()
				if !s.OnWearOut(u) {
					if !slices.Equal(s.Bindings(), before) {
						t.Fatalf("%s: failed OnWearOut(%d) changed the table", name, u)
					}
					break
				}
				worn[before[u]] = true
				if s.SpareLinesUsed() != used+1 {
					t.Fatalf("%s: SpareLinesUsed %d -> %d", name, used, s.SpareLinesUsed())
				}
				checkBinding(t, name, s, p.Lines(), worn)
				if step > p.Lines() {
					t.Fatalf("%s: more wear-outs than device lines", name)
				}
			}
		}
	}
}
