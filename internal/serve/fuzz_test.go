package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSubmitDecode feeds arbitrary bodies to the submit path's decoder and
// validator. Neither may panic, and a request they accept is a fixed point:
// validating it again, or sending its JSON form back through the decoder,
// yields the same request and the same dedup key.
func FuzzSubmitDecode(f *testing.F) {
	for _, body := range []string{
		`{"run":"tableII","scale":"small","benchmarks":["505.mcf_r","541.leela_r"]}`,
		`{"run":"fig4","scale":"small","selector":"simpoint"}`,
		`{"run":"shootout","scale":"small","benchmarks":[" 505.mcf_r ",""],"repeats":3}`,
		`{"run":"tableIII"}`,
		`{}`,
		`{"run":"bogus"}`,
		`{"run":"tableI","repeats":-1}`,
		`{"run":"tableI","extra":1}`,
		`{"run":"tableI"}{"run":"fig4"}`,
		`[`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		req, _, err = req.validate()
		if err != nil {
			return
		}
		key := req.key()
		again, _, err := req.validate()
		if err != nil {
			t.Fatalf("accepted request %+v fails to re-validate: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) || again.key() != key {
			t.Fatalf("re-validation moved %+v (key %s) to %+v (key %s)", req, key, again, again.key())
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRequest(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("accepted request's JSON %s fails to decode: %v", blob, err)
		}
		if back, _, err = back.validate(); err != nil || back.key() != key {
			t.Fatalf("accepted request's JSON %s re-validates to key %s (%v), want %s", blob, back.key(), err, key)
		}
	})
}
