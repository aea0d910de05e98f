package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpecNormalize feeds arbitrary JSON to the job-spec decoder and
// normalize, the first code an untrusted POST /v1/jobs body reaches.
// normalize must never panic, an accepted spec must be a fixed point
// (normalizing it again changes nothing), and its fingerprint must stay
// the same.
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
	})
}
