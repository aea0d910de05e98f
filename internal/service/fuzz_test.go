package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpecNormalize feeds arbitrary JSON to the job-spec decoder and
// normalize, the first code an untrusted POST /v1/jobs body reaches.
// normalize must never panic, an accepted spec must be a fixed point
// (normalizing it again changes nothing), its fingerprint must stay the
// same, and no device it asks for may exceed maxDeviceLines.
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"fig7"}`,
		`{"kind":"fig7","wls":["nope"]}`,
		`{"kind":"fig7","wls":["tlsr","tlsr"],"swr_percents":[0,101]}`,
		`{"kind":"fig7","swr_percents":[],"cells":[{"key":"x"}],"parallelism":2}`,
		`{"kind":"fig8","setup":{"regions":64,"profile":"power-law"},"federated":true}`,
		`{"kind":"fig8","setup":{"variation_q":0.5}}`,
		`{"kind":"cells","cells":[{"key":"a","config":{"Regions":8}}],"setup":{"psi":-1}}`,
		`{"kind":"cells","cells":[{"key":"a"},{"key":"a"}]}`,
		`{"kind":"fig8","setup":{"regions":1073741824,"lines_per_region":1048576}}`,
		`{"kind":"cells","cells":[{"key":"a","config":{"Regions":4611686018427387904,"LinesPerRegion":4}}]}`,
		`{"kind":"fig9","retries":-1}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		if json.Unmarshal(raw, &spec) != nil {
			return
		}
		norm, err := spec.normalize()
		if err != nil {
			return
		}
		again, err := norm.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on renormalize: %v", norm, err)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("normalize is not idempotent:\nonce  %+v\ntwice %+v", norm, again)
		}
		if fp := norm.fingerprint(); fp != again.fingerprint() {
			t.Fatalf("fingerprint moved on renormalize: %s vs %s", fp, again.fingerprint())
		}
		if norm.cellCount() < 1 {
			t.Fatalf("accepted spec %+v expands to no cells", norm)
		}
		tooBig := func(regions, linesPerRegion int) bool {
			return regions > 0 && linesPerRegion > 0 &&
				(regions > maxDeviceLines || linesPerRegion > maxDeviceLines || regions*linesPerRegion > maxDeviceLines)
		}
		if norm.Kind != KindCells {
			su, _ := norm.Setup.setup()
			if tooBig(su.Regions, su.LinesPerRegion) {
				t.Fatalf("accepted setup %dx%d is above the %d-line limit", su.Regions, su.LinesPerRegion, maxDeviceLines)
			}
		}
		for _, c := range norm.Cells {
			if tooBig(c.Config.Regions, c.Config.LinesPerRegion) {
				t.Fatalf("accepted cell %q of %dx%d lines is above the limit", c.Key, c.Config.Regions, c.Config.LinesPerRegion)
			}
		}
	})
}
