package service

import (
	"errors"
	"testing"
)

func TestStateTerminal(t *testing.T) {
	for s, terminal := range map[State]bool{
		StatePending: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCanceled: true,
	} {
		if s.Terminal() != terminal {
			t.Errorf("%s.Terminal() = %v, want %v", s, s.Terminal(), terminal)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := New(Config{Workers: 1})
	m.Close()
	_, err := m.Submit(Request{Random: &RandomRequest{Limit: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Cancel("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(missing) = %v, want ErrNotFound", err)
	}
	if _, _, _, err := m.Subscribe("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Subscribe(missing) = %v, want ErrNotFound", err)
	}
}

// TestJobRetention: terminal jobs beyond the retention cap are dropped,
// oldest first, so the job table stays bounded.
func TestJobRetention(t *testing.T) {
	m := New(Config{Workers: 1, JobRetention: 2})
	defer m.Close()
	// Occupy the single worker so subsequent jobs stay pending.
	blocker, err := m.Submit(Request{Random: &RandomRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	for i := range ids {
		v, err := m.Submit(Request{Random: &RandomRequest{Limit: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	// Cancel the pending jobs: each becomes terminal and enters retention.
	for _, id := range ids {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest terminal job should be evicted, got %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("job %s should be retained: %v", id, err)
		}
	}
	if _, err := m.Get(blocker.ID); err != nil {
		t.Errorf("non-terminal job must never be evicted: %v", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}
