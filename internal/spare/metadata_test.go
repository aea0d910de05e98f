package spare

import (
	"testing"

	"maxwe/internal/endurance"
	"maxwe/internal/xrand"
)

// metadataProfile is large enough that the default spare split yields
// whole SWR regions, so a fresh Max-WE starts with RMT pairs to corrupt
// (testProfile's 40 lines round the SWR share down to zero regions).
func metadataProfile() *endurance.Profile {
	return endurance.Linear(32, 8, 10, 500)
}

// translate resolves slot u through s's mapping tables, as OnWearOut does
// when it rebinds the slot.
func translate(s *MaxWEScheme, u int) int {
	return s.Mapping().Translate(s.BaseLine(u))
}

func TestMaxWEMetadataCorruptScrubRoundtrip(t *testing.T) {
	p := metadataProfile().Shuffled(xrand.New(1))
	s := NewMaxWE(p, DefaultMaxWEOptions())

	// A fresh scrub on intact metadata finds nothing.
	if n := s.ScrubMetadata(); n != 0 {
		t.Fatalf("clean scrub repaired %d entries", n)
	}

	// Record every slot's translation through the tables before the fault
	// (Access reads the binding stored at wear-outs, not the tables).
	before := make([]int, s.UserLines())
	for u := range before {
		before[u] = translate(s, u)
	}

	src := xrand.New(2)
	for round := 0; round < 32; round++ {
		if !s.CorruptMetadata(src) {
			t.Fatalf("round %d: Max-WE has metadata but Corrupt found none", round)
		}
		// The binding was resolved at boot; damage in the tables does not
		// reach it.
		for u, want := range before {
			if got := s.Access(u); got != want {
				t.Fatalf("round %d: corrupt tables moved slot %d to line %d, want %d", round, u, got, want)
			}
		}
		if n := s.ScrubMetadata(); n != 1 {
			t.Fatalf("round %d: scrub repaired %d entries, want 1", round, n)
		}
	}

	// Every translation is restored: the corrupt/scrub cycle is lossless.
	for u, want := range before {
		if got := translate(s, u); got != want {
			t.Fatalf("slot %d resolves to line %d after scrub, want %d", u, got, want)
		}
	}
}

func TestMaxWEMetadataCorruptIsDeterministic(t *testing.T) {
	build := func() *MaxWEScheme {
		return NewMaxWE(metadataProfile().Shuffled(xrand.New(1)), DefaultMaxWEOptions())
	}
	a, b := build(), build()
	srcA, srcB := xrand.New(5), xrand.New(5)
	for round := 0; round < 16; round++ {
		a.CorruptMetadata(srcA)
		b.CorruptMetadata(srcB)
		for u := 0; u < a.UserLines(); u++ {
			if translate(a, u) != translate(b, u) {
				t.Fatalf("round %d: corruption diverged at slot %d", round, u)
			}
		}
		a.ScrubMetadata()
		b.ScrubMetadata()
	}
}
