package federated

import (
	"strings"
	"testing"
	"time"

	"exdra/internal/fedrpc"
)

func TestCreatedIDs(t *testing.T) {
	reqs := []fedrpc.Request{
		{Type: fedrpc.Read, ID: 1},
		{Type: fedrpc.Put, ID: 2},
		{Type: fedrpc.Get, ID: 3}, // pure read: creates nothing
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "t", Inputs: []int64{1}, Output: 4}},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{2}}},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "uak+", Inputs: []int64{1}}}, // no output binding
		{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "tf_apply", Inputs: []int64{1}, Output: 5}},
		{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "obj_dims", Inputs: []int64{1}}},
	}
	got := createdIDs(reqs)
	want := []int64{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("createdIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("createdIDs = %v, want %v", got, want)
		}
	}
}

func TestBackoffJitterIsSeeded(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		f := NewFleet(fedrpc.Options{}, 1, Policy{Seed: seed})
		defer f.Close()
		var out []time.Duration
		for i := 0; i < 4; i++ {
			d := f.jitter(time.Second)
			if d < time.Second/2 || d >= 3*time.Second/2 {
				t.Fatalf("jittered second = %v, want within [0.5s, 1.5s)", d)
			}
			out = append(out, d)
		}
		return out
	}
	a, b := delays(99), delays(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter stream: %v vs %v", a, b)
		}
	}
}

// TestCloseCancelsRetryBackoff pins the shutdown contract: a coordinator
// in a retry backoff (at least a second here: the 2s cap, jittered down to
// half at most) returns promptly when closed instead of sleeping it out.
func TestCloseCancelsRetryBackoff(t *testing.T) {
	c := NewTestSession(t, fedrpc.Options{DialTimeout: 100 * time.Millisecond},
		Policy{Attempts: 3, Backoff: time.Hour, Seed: 1})
	errc := make(chan error, 1)
	go func() {
		// 127.0.0.1:1 refuses fast, sending call into its first backoff.
		_, err := c.call("127.0.0.1:1", []fedrpc.Request{{Type: fedrpc.Get, ID: 1}})
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("call against a refused port should fail")
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("want a closed-coordinator error, got: %v", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Close did not cancel the retry backoff")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{Backoff: 10 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{
		1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond,
		9: 2 * time.Second, 64: 2 * time.Second, // the fixed cap, however long the schedule
	} {
		if got := p.delay(attempt); got != want {
			t.Errorf("delay before retry %d = %v, want %v", attempt, got, want)
		}
	}
	if got := (Policy{}).delay(1); got != 50*time.Millisecond {
		t.Errorf("default base backoff = %v, want 50ms", got)
	}
	if got := (Policy{Backoff: time.Hour}).delay(1); got != 2*time.Second {
		t.Errorf("base backoff above the cap = %v, want 2s", got)
	}
}

// TestMergeRetrySafeHoldsBackFreesOfConsumedObjects: only the free of an
// object that the batch read before creating it has to wait; temps of the
// batch are freed in place, and the caller's own requests keep their reply
// positions.
func TestMergeRetrySafeHoldsBackFreesOfConsumedObjects(t *testing.T) {
	inst := func(op string, out int64, in ...int64) fedrpc.Request {
		return fedrpc.Request{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: op, Inputs: in, Output: out}}
	}
	pend := []deferredReq{
		{req: rmvar(9), op: "free"}, // nothing before it reads 9
		{req: fedrpc.Request{Type: fedrpc.Put, ID: 20}, op: "binary *"},
		{req: inst("*", 21, 1, 20), op: "binary *"}, // reads pre-existing 1
		{req: rmvar(20), op: "binary *"},            // temp of the batch
		{req: rmvar(1), op: "free"},                 // consumed above: must wait
		{req: inst("abs", 22, 21), op: "abs"},
		{req: rmvar(21, 2), op: "free"}, // 21 is rebuilt by a retry, 2 is never read
	}
	own := []fedrpc.Request{{Type: fedrpc.Get, ID: 22}, rmvar(22)}
	merged, ops, late := mergeRetrySafe(pend, own)
	if len(late) != 1 || late[0] != 1 {
		t.Fatalf("late = %v, want [1]", late)
	}
	if len(ops) != 6 || len(merged) != 8 {
		t.Fatalf("kept %d pending of %d requests, want 6 of 8", len(ops), len(merged))
	}
	if got := merged[5].Inst.Inputs; len(got) != 2 || got[0] != 21 || got[1] != 2 {
		t.Fatalf("free of a batch-created object was trimmed: %v", got)
	}
	if merged[6].Type != fedrpc.Get || merged[7].Inst.Opcode != "rmvar" {
		t.Fatal("own requests lost their place at the end of the batch")
	}
	// A free shared between a consumed and an untouched object is split,
	// and an own rmvar left empty stays for its reply.
	merged, ops, late = mergeRetrySafe(
		[]deferredReq{{req: inst("abs", 30, 1), op: "abs"}, {req: rmvar(1, 2), op: "free"}},
		[]fedrpc.Request{inst("abs", 31, 3), rmvar(3)})
	if len(late) != 2 || late[0] != 1 || late[1] != 3 {
		t.Fatalf("late = %v, want [1 3]", late)
	}
	if len(ops) != 2 || len(merged) != 4 || len(merged[1].Inst.Inputs) != 1 || merged[1].Inst.Inputs[0] != 2 {
		t.Fatalf("split free: ops %v, merged %+v", ops, merged)
	}
	if merged[3].Inst.Opcode != "rmvar" || len(merged[3].Inst.Inputs) != 0 {
		t.Fatalf("own rmvar = %+v, want an empty rmvar in place", merged[3].Inst)
	}
}
