package federated

import (
	"errors"
	"testing"

	"exdra/internal/fedrpc"
)

func recCoord() *Coordinator {
	return NewCoordinator(fedrpc.Options{}, Policy{Recover: true})
}

func okResps(n int) []fedrpc.Response {
	out := make([]fedrpc.Response, n)
	for i := range out {
		out[i] = fedrpc.Response{OK: true, Epoch: 1}
	}
	return out
}

func TestRetryableBatchIncludesHealth(t *testing.T) {
	if !RetryableBatch([]fedrpc.Request{{Type: fedrpc.Health}}) {
		t.Fatal("HEALTH must be retryable: it reads and writes nothing")
	}
}

// TestCreationLogLifecycle: successful batches populate the log, rmvar
// marks entries dead, and dead entries without live dependents are
// garbage-collected while dead dependencies of live objects are retained.
func TestCreationLogLifecycle(t *testing.T) {
	c := recCoord()
	defer c.Close()
	const addr = "w0"
	reqs := []fedrpc.Request{
		{Type: fedrpc.Put, ID: 1, Data: fedrpc.ScalarPayload(3)},
		{Type: fedrpc.Put, ID: 2, Data: fedrpc.ScalarPayload(4)},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "mm", Inputs: []int64{1, 2}, Output: 3}},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{2}}},
	}
	s := c.log(addr)
	c.record(s, reqs, okResps(len(reqs)), 1)
	if len(s.records) != 3 {
		t.Fatalf("log holds %d records, want 3 (dead broadcast retained for live dependent)", len(s.records))
	}
	if rec := s.records[2]; rec == nil || rec.live {
		t.Fatal("rmvar'd broadcast should be recorded dead, not dropped: object 3 depends on it")
	}
	// Killing the dependent releases the dead dependency too.
	c.record(s, []fedrpc.Request{
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{3}}},
	}, okResps(1), 1)
	if len(s.records) != 1 {
		t.Fatalf("log holds %d records after dependent died, want only the live PUT", len(s.records))
	}
	if s.records[1] == nil {
		t.Fatal("live PUT record was dropped")
	}
	// Failed requests must not enter the log.
	c.record(s, []fedrpc.Request{{Type: fedrpc.Put, ID: 9}}, []fedrpc.Response{{OK: false, Err: "boom"}}, 1)
	if s.records[9] != nil {
		t.Fatal("failed PUT entered the creation log")
	}
}

// TestPlanReplayTopologicalOrder: records stamped with another epoch than
// the worker's current one are stale; replay re-issues their creations
// dependencies first, includes stale dead dependencies of the needed object,
// and lists them for the trailing rmvar.
func TestPlanReplayTopologicalOrder(t *testing.T) {
	c := recCoord()
	defer c.Close()
	s := c.log("w0")
	c.record(s, []fedrpc.Request{
		{Type: fedrpc.Put, ID: 1},
		{Type: fedrpc.Put, ID: 2},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "mm", Inputs: []int64{1, 2}, Output: 3}},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{2}}},
	}, okResps(4), 7)
	if plan, _, err := c.planReplay(s, []int64{3}, 7); err != nil || len(plan) != 0 {
		t.Fatalf("records valid under the current epoch produced a plan: %v, %v", plan, err)
	}
	plan, dead, err := c.planReplay(s, []int64{3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("plan has %d records, want 3 (both PUTs + mm)", len(plan))
	}
	if out := plan[len(plan)-1].req.Inst; out == nil || out.Output != 3 {
		t.Fatal("dependent instruction must replay after its inputs")
	}
	if len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("dead temps to re-remove = %v, want [2]", dead)
	}
	// A record replayed under the new epoch is valid again; its stale
	// neighbours are not.
	s.records[1].epoch = 8
	if plan, _, _ = c.planReplay(s, []int64{1}, 8); len(plan) != 0 {
		t.Fatalf("replayed record planned again: %v", plan)
	}
	if plan, _, _ = c.planReplay(s, []int64{3}, 8); len(plan) != 2 {
		t.Fatalf("plan after a partial replay has %d records, want 2 (PUT 2 + mm)", len(plan))
	}
	// Untracked objects need no replay.
	plan2, _, err := c.planReplay(s, []int64{99}, 8)
	if err != nil || len(plan2) != 0 {
		t.Fatalf("untracked ID produced a plan: %v, %v", plan2, err)
	}
}

// TestPlanReplayUnrecoverable: a needed EXEC_UDF-created object that is
// stale fails planning with the typed error.
func TestPlanReplayUnrecoverable(t *testing.T) {
	c := recCoord()
	defer c.Close()
	s := c.log("w0")
	c.record(s, []fedrpc.Request{
		{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "mkstate", Output: 5}},
	}, okResps(1), 7)
	if _, _, err := c.planReplay(s, []int64{5}, 7); err != nil {
		t.Fatalf("UDF state under its own epoch needs no replay, got %v", err)
	}
	_, _, err := c.planReplay(s, []int64{5}, 8)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("plan over lost UDF state = %v, want ErrUnrecoverable", err)
	}
}

// TestStaleWithoutRecovery: with recovery off the session keeps only the
// epoch of its last exchange. Once the site has moved past it, a batch that
// reads anything fails before it is sent — once — and a batch that only
// creates goes through.
func TestStaleWithoutRecovery(t *testing.T) {
	c := NewCoordinator(fedrpc.Options{}, Policy{})
	defer c.Close()
	st, err := c.site("w0")
	if err != nil {
		t.Fatal(err)
	}
	s := c.log("w0")
	get := []fedrpc.Request{{Type: fedrpc.Get, ID: 1}}
	put := []fedrpc.Request{{Type: fedrpc.Put, ID: 2}}
	if class, _, err := c.revalidate(st, s, 0, get); class != outOK {
		t.Fatalf("first contact: %v, %v", class, err)
	}
	c.record(s, put, okResps(1), 7)
	if len(s.records) != 0 {
		t.Fatal("the zero policy keeps no creation log")
	}
	if class, _, err := c.revalidate(st, s, 7, get); class != outOK {
		t.Fatalf("same epoch: %v, %v", class, err)
	}
	class, _, err := c.revalidate(st, s, 8, get)
	if class != outUnrecoverable || !errors.Is(err, ErrWorkerRestarted) {
		t.Fatalf("read after a restart = %v, %v; want outUnrecoverable wrapping ErrWorkerRestarted", class, err)
	}
	if class, _, err := c.revalidate(st, s, 8, get); class != outOK {
		t.Fatalf("the restart is reported once: %v, %v", class, err)
	}
	c.record(s, put, okResps(1), 8)
	if class, _, err := c.revalidate(st, s, 9, put); class != outOK {
		t.Fatalf("a create-only batch reads nothing that was lost: %v, %v", class, err)
	}
}

// TestInstTraceDeterminism: the lineage trace of an instruction is stable
// across map iteration order (attrs sorted) and distinguishes different
// computations.
func TestInstTraceDeterminism(t *testing.T) {
	s := &workerLog{records: map[int64]*creationRec{
		1: {trace: "file#a.csv"},
	}}
	inst := func(attrs map[string]string) *fedrpc.Instruction {
		return &fedrpc.Instruction{Opcode: "slice", Inputs: []int64{1}, Output: 2, Attrs: attrs}
	}
	a := instTrace(s, inst(map[string]string{"rows": "0:5", "cols": "1:2"}))
	for i := 0; i < 16; i++ {
		if b := instTrace(s, inst(map[string]string{"cols": "1:2", "rows": "0:5"})); b != a {
			t.Fatalf("trace unstable across attr order: %q vs %q", a, b)
		}
	}
	if b := instTrace(s, inst(map[string]string{"rows": "0:6", "cols": "1:2"})); b == a {
		t.Fatal("different attrs produced the same trace")
	}
}

// TestNeededIDs: GETs and instruction/UDF inputs require existence; rmvar
// inputs and READ/PUT targets do not.
func TestNeededIDs(t *testing.T) {
	ids := neededIDs([]fedrpc.Request{
		{Type: fedrpc.Read, ID: 1},
		{Type: fedrpc.Put, ID: 2},
		{Type: fedrpc.Get, ID: 3},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "mm", Inputs: []int64{4, 5}, Output: 6}},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{7}}},
		{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "f", Inputs: []int64{8}}},
		{Type: fedrpc.Health},
	})
	want := []int64{3, 4, 5, 8}
	if len(ids) != len(want) {
		t.Fatalf("neededIDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("neededIDs = %v, want %v", ids, want)
		}
	}
}
