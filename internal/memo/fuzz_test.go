package memo

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// FuzzMemoDiskEntry plants arbitrary bytes as key's disk file and reads
// it through a fresh cache. The entry may be served only when it is an
// envelope {key, value} naming exactly that key with a non-empty value,
// and then byte-for-byte as the envelope's value; anything else is a
// miss that counts Corrupt and quarantines the file to <name>.corrupt.
func FuzzMemoDiskEntry(f *testing.F) {
	const k = "cells/v1/abc"
	for _, seed := range []string{
		`{"key":"cells/v1/abc","value":{"v":1}}`,
		`{"key":"cells/v1/abc","value":[1,2,3]}`,
		`{"key":"cells/v1/abc","value":null}`,
		`{"key":"cells/v1/abc"}`,
		`{"key":"cells/v1/other","value":{"v":1}}`,
		`{"KEY":"cells/v1/abc","Value":7}`,
		`{"key":"cells/v1/abc","value":{"v":1}} trailing`,
		`{"key":"cells/v1/abc","val`,
		`[]`,
		``,
	} {
		f.Add(k, []byte(seed))
	}
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		dir := t.TempDir()
		path := mustOpen(t, Options{Dir: dir}).path(key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The envelope is read with encoding/json's struct rules on
		// purpose: member names match case-insensitively and a repeated
		// member's last value wins. The cache only ever reads files it
		// wrote itself, and either rule still requires the key to equal
		// the one asked for, so neither can serve another key's value.
		// TestDiskEnvelopeAcceptance pins those rules case by case.
		var env struct {
			Key   string          `json:"key"`
			Value json.RawMessage `json:"value"`
		}
		servable := json.Unmarshal(data, &env) == nil && env.Key == key && len(env.Value) > 0

		c := mustOpen(t, Options{Dir: dir})
		val, ok := c.Get(key)
		s := c.Stats()
		if ok != servable {
			t.Fatalf("Get(%q) on %q: ok=%v, want %v", key, data, ok, servable)
		}
		if ok {
			if !bytes.Equal(val, env.Value) {
				t.Fatalf("served %q, envelope value is %q", val, env.Value)
			}
			if s.DiskHits != 1 || s.Corrupt != 0 {
				t.Fatalf("hit stats = %+v", s)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("served entry changed on disk: %q, %v", got, err)
			}
			return
		}
		if s.Misses != 1 || s.Corrupt != 1 {
			t.Fatalf("miss stats = %+v, want one miss and one corrupt entry", s)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("rejected entry still in place: %v", err)
		}
		if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("rejected entry not quarantined intact: %q, %v", got, err)
		}
	})
}

// TestDiskEnvelopeAcceptance states, independently of the decoder, which
// disk envelopes for key k are served and with what value. An empty want
// means the entry is rejected: a miss, counted Corrupt.
func TestDiskEnvelopeAcceptance(t *testing.T) {
	const k = "cells/v1/abc"
	for _, tc := range []struct {
		data, want string
	}{
		{`{"key":"cells/v1/abc","value":{"v":1}}`, `{"v":1}`},
		{`{"value":[1, 2],"key":"cells/v1/abc"}`, `[1, 2]`},
		{`{"key":"cells/v1/abc","value":null}`, `null`},
		{`{"KEY":"cells/v1/abc","Value":7}`, `7`},
		{`{"key":"cells/v1/other","key":"cells/v1/abc","value":1}`, `1`},
		{`{"key":"cells/v1/abc","value":1,"value":2}`, `2`},
		{`{"key":"cells/v1/abc","extra":true,"value":3}`, `3`},
		{`{"key":"cells/v1/abc","key":"cells/v1/other","value":1}`, ``},
		{`{"key":"CELLS/v1/abc","value":1}`, ``},
		{`{"key":"cells/v1/abc"}`, ``},
		{`{"key":"cells/v1/abc","value":1} {}`, ``},
		{`{"key":7,"value":1}`, ``},
		{`["cells/v1/abc",1]`, ``},
		{``, ``},
	} {
		dir := t.TempDir()
		path := mustOpen(t, Options{Dir: dir}).path(k)
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustOpen(t, Options{Dir: dir})
		val, ok := c.Get(k)
		if got := string(val); ok != (tc.want != "") || got != tc.want {
			t.Errorf("%s: Get = %q, %v; want %q", tc.data, got, ok, tc.want)
		}
		if s := c.Stats(); ok == (s.Corrupt != 0) {
			t.Errorf("%s: served=%v with Corrupt=%d", tc.data, ok, s.Corrupt)
		}
	}
}
