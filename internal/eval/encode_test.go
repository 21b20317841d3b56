package eval

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzResultJSON feeds arbitrary bytes to ReadResultJSON, which must reject
// or accept them without panicking. An accepted summary must rebuild into
// a BenchResult that encodes back to the same JSON.
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte(`{"circuit":"c","qubits":4,"gates_2q":3,"compilers":["baseline","optimized"],` +
		`"outcomes":{"baseline":{"compiler":"baseline","shuttles":7,"compile_time_ns":42,"duration_us":1.5,` +
		`"log_fidelity":-0.25,"fidelity":0.78,"coolings":2},"optimized":{"compiler":"optimized","shuttles":3,` +
		`"direction_policy":"future-ops","measures":4}}}`))
	f.Add([]byte(`{"circuit":"c","compilers":["baseline"],"outcomes":{"baseline":null}}`))
	f.Add([]byte(`{"circuit":"c","compilers":["a","a"],"outcomes":{"a":{},"b":{}}}`))
	f.Add([]byte(`{"compilers":[],"outcomes":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadResultJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(EncodeResult(j.BenchResult()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("summary re-encodes differently:\n got %s\nwant %s", got, want)
		}
	})
}
