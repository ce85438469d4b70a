package worker

import (
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// TestClearScopedToNamespace proves the worker-side half of session
// isolation: a CLEAR carrying a namespace in its ID field removes only
// that namespace's bindings — namespace 0's included, for raw clients that
// pick bare IDs.
func TestClearScopedToNamespace(t *testing.T) {
	w := New("")
	m := matrix.FromRows([][]float64{{1}})
	ids := []int64{
		fedrpc.MakeID(1, 1), fedrpc.MakeID(1, 2),
		fedrpc.MakeID(2, 1), fedrpc.MakeID(2, 2),
		5, // a bare ID (namespace 0)
	}
	for _, id := range ids {
		resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Put, ID: id, Data: fedrpc.MatrixPayload(m)}})
		if !resp[0].OK {
			t.Fatalf("PUT %d: %s", id, resp[0].Err)
		}
	}

	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Clear, ID: 1}})
	if !resp[0].OK {
		t.Fatalf("scoped CLEAR: %s", resp[0].Err)
	}
	if n := w.NumObjects(); n != 3 {
		t.Fatalf("after clearing namespace 1: %d objects, want 3", n)
	}
	for _, id := range []int64{fedrpc.MakeID(1, 1), fedrpc.MakeID(1, 2)} {
		if _, err := w.Get(id); err == nil {
			t.Fatalf("namespace-1 object %d survived its CLEAR", id)
		}
	}
	for _, id := range []int64{fedrpc.MakeID(2, 1), fedrpc.MakeID(2, 2), 5} {
		if _, err := w.Get(id); err != nil {
			t.Fatalf("foreign object %d destroyed by namespace-1 CLEAR: %v", id, err)
		}
	}

	resp = w.Handle([]fedrpc.Request{{Type: fedrpc.Clear, ID: 0}})
	if !resp[0].OK {
		t.Fatalf("CLEAR 0: %s", resp[0].Err)
	}
	if _, err := w.Get(5); err == nil {
		t.Fatal("namespace-0 object 5 survived CLEAR 0")
	}
	for _, id := range []int64{fedrpc.MakeID(2, 1), fedrpc.MakeID(2, 2)} {
		if _, err := w.Get(id); err != nil {
			t.Fatalf("namespace-2 object %d destroyed by CLEAR 0: %v", id, err)
		}
	}
}
