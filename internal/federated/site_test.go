package federated

import (
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/obs"
)

// TestVerdictTable enumerates every (outcome class × retry-safe) cell of
// verdict. It is the table DESIGN.md §3.5 prints: change one, change the
// other.
func TestVerdictTable(t *testing.T) {
	// Columns: retrySafe = no, yes.
	table := []struct {
		name  string
		class outcome
		want  [2]action
	}{
		{"ok", outOK, [2]action{actDone, actDone}},
		{"dial/transport", outTransport, [2]action{actFatal, actRetry}},
		{"deadline, local or remote", outDeadline, [2]action{actFatal, actFatal}},
		{"caller cancelled", outCancelled, [2]action{actFatal, actFatal}},
		{"restarted, all-OK reply", outRestartedOK, [2]action{actDone, actDone}},
		{"restarted, partial reply", outRestartedPartial, [2]action{actFatal, actReplay}},
		{"replay rejected", outReplayRejected, [2]action{actFatal, actFatal}},
		{"unrecoverable", outUnrecoverable, [2]action{actFatal, actFatal}},
		{"closed", outClosed, [2]action{actFatal, actFatal}},
	}
	if len(table) != int(outClosed)+1 {
		t.Fatalf("table has %d rows for %d outcome classes", len(table), int(outClosed)+1)
	}
	for i, row := range table {
		if int(row.class) != i {
			t.Fatalf("row %d (%s) is class %d: keep the table in declaration order", i, row.name, row.class)
		}
		for col, want := range row.want {
			retrySafe := col == 1
			if got := verdict(row.class, retrySafe); got != want {
				t.Errorf("verdict(%s, retrySafe=%v) = %d, want %d", row.name, retrySafe, got, want)
			}
		}
	}
}

// TestSiteCountsARestartOnce: first contact records the epoch, the same
// epoch is quiet, and a change is one restart however many sessions' replies
// carry it.
func TestSiteCountsARestartOnce(t *testing.T) {
	f := NewFleet(fedrpc.Options{Metrics: obs.New()}, 1, Policy{})
	t.Cleanup(f.Close)
	st, err := f.site("w1:1")
	if err != nil {
		t.Fatal(err)
	}
	restarts := f.reg.Counter("fed.restarts_detected")
	f.settle(st, outOK, 0) // unstamped reply
	f.settle(st, outOK, 7) // first contact
	f.settle(st, outOK, 7)
	if restarts.Value() != 0 || st.currentEpoch() != 7 {
		t.Fatalf("epoch %d, %d restarts after first contact; want 7, 0", st.currentEpoch(), restarts.Value())
	}
	f.settle(st, outRestartedPartial, 8) // session A's reply
	f.settle(st, outRestartedPartial, 8) // session B's reply, sent under 7 as well
	f.settle(st, outRestartedOK, 8)
	f.settle(st, outTransport, 0) // no reply, no epoch
	if restarts.Value() != 1 || st.currentEpoch() != 8 {
		t.Fatalf("epoch %d, %d restarts; want 8 and exactly 1", st.currentEpoch(), restarts.Value())
	}
	for name, want := range map[string]int64{"fed.transport_errors": 1, "fed.deadline_exceeded": 0} {
		if got := f.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
