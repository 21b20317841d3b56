package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay writes arbitrary bytes as wal.log and opens the journal
// on them. Open must recover from any bytes, since a torn or corrupt tail
// is truncated, never fatal: it neither panics nor fails. The wal.log it
// leaves must be clean, so a journal opened on a copy of it truncates
// nothing and replays the same jobs.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Kind: "submit", JobID: "a", Source: "qasm", State: "pending", Payload: json.RawMessage(`{"qasm":"OPENQASM 2.0;"}`)},
		{Kind: "submit", JobID: "b", Source: "random", State: "pending", Payload: json.RawMessage(`{"random":{"limit":2}}`)},
		{Kind: "state", JobID: "a", State: "running"},
		{Kind: "state", JobID: "a", State: "done", Final: true, Payload: json.RawMessage(`{"result":1}`)},
		{Kind: "state", JobID: "b", State: "failed", Error: "boom", Final: true},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	j.Close() //nolint:errcheck
	f.Add(wal)
	for _, n := range []int{0, 4, 8, 9, len(wal) / 2, len(wal) - 1} {
		f.Add(wal[:n])
	}
	f.Add(append(append([]byte{}, wal...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		left, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		again := t.TempDir()
		if err := os.WriteFile(filepath.Join(again, "wal.log"), left, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(again, Options{})
		if err != nil {
			t.Fatalf("reopen the recovered wal.log: %v", err)
		}
		defer j2.Close()
		if n := j2.Stats().TruncatedBytes; n != 0 {
			t.Fatalf("the recovered wal.log lost %d more bytes on reopen", n)
		}
		want, err := json.Marshal(j.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(j2.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reopened jobs differ:\n got: %s\nwant: %s", got, want)
		}
	})
}
