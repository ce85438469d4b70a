package worker

import (
	"testing"

	"exdra/internal/fedrpc"
)

// TestEpochIdentity: each worker process state carries a random, nonzero
// instance epoch, distinct across incarnations — the identity the
// coordinator's restart detection hangs on.
func TestEpochIdentity(t *testing.T) {
	a, b := New(""), New("")
	if a.Epoch() == 0 || b.Epoch() == 0 {
		t.Fatal("worker epoch must be nonzero")
	}
	if a.Epoch() == b.Epoch() {
		t.Fatal("two worker instances share an epoch; restarts would be invisible")
	}
}

// TestEveryResponseCarriesEpoch: the handshake is on every response of
// every request type, so any exchange suffices for restart detection.
func TestEveryResponseCarriesEpoch(t *testing.T) {
	w := New("")
	resps := w.Handle([]fedrpc.Request{
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{41}}},
		{Type: fedrpc.Get, ID: 42}, // fails (unknown object) — still stamped
	})
	if !resps[0].OK {
		t.Fatalf("rmvar of an unbound ID failed: %s", resps[0].Err)
	}
	if resps[1].OK {
		t.Fatal("GET of unknown object should fail")
	}
	for i, r := range resps {
		if r.Epoch != w.Epoch() {
			t.Fatalf("response %d epoch = %d, want %d", i, r.Epoch, w.Epoch())
		}
	}
}
