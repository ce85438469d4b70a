package federated

import (
	"errors"
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/worker"
)

func recCoord(t *testing.T) *Coordinator {
	return NewTestSession(t, fedrpc.Options{}, Policy{})
}

func okResps(n int) []fedrpc.Response {
	out := make([]fedrpc.Response, n)
	for i := range out {
		out[i] = fedrpc.Response{OK: true, Epoch: 1}
	}
	return out
}

// TestCreationLogLifecycle: successful batches populate the log, rmvar
// marks entries dead, and dead entries without live dependents are
// garbage-collected while dead dependencies of live objects are retained.
func TestCreationLogLifecycle(t *testing.T) {
	c := recCoord(t)
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
	c := recCoord(t)
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
	c := recCoord(t)
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

// TestDistributeLogsRowViewsOfX: the creation log keeps every PUT payload
// so it can replay it, so a row partition's payload must be a view of x's
// rows; a copy would pin a second x for the session's lifetime. Column
// partitions are not contiguous in x and stay copies.
func TestDistributeLogsRowViewsOfX(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := fedrpc.Serve("127.0.0.1:0", worker.New(""), fedrpc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	c := recCoord(t)
	defer c.Close()
	x := matrix.NewDense(5, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	logged := func(p Partition) []float64 {
		t.Helper()
		c.recMu.Lock()
		defer c.recMu.Unlock()
		rec := c.logs[p.Addr].records[p.DataID]
		if rec == nil || rec.req.Type != fedrpc.Put {
			t.Fatalf("no logged PUT for partition %+v", p)
		}
		return rec.req.Data.Values
	}
	rows, err := Distribute(c, x, addrs, RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rows.Map().Partitions {
		if vals := logged(p); &vals[0] != &x.Data()[p.Range.RowBeg*x.Cols()] {
			t.Fatalf("row partition %v: the logged PUT payload is a copy of x", p.Range)
		}
	}
	cols, err := Distribute(c, x, addrs, ColPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cols.Map().Partitions {
		if vals := logged(p); &vals[0] == &x.Data()[p.Range.ColBeg] {
			t.Fatalf("column partition %v: the logged PUT payload aliases x", p.Range)
		}
	}
}

// TestDistributeFrameLogsRowViews: like a matrix row partition, a frame
// partition's logged PUT payload is a view of fr's rows, column by column,
// so the creation log pins no second copy of the frame.
func TestDistributeFrameLogsRowViews(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := fedrpc.Serve("127.0.0.1:0", worker.New(""), fedrpc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	c := recCoord(t)
	defer c.Close()
	fr := frame.MustNew(
		frame.FloatColumn("f", []float64{1, 2, 3, 4, 5}),
		frame.IntColumn("i", []int64{1, 2, 3, 4, 5}),
		frame.StringColumn("s", []string{"a", "", "c", "d", "e"}),
		&frame.Column{Name: "b", Type: frame.Boolean, Bools: []bool{true, false, true, false, true}},
	)
	ff, err := DistributeFrame(c, fr, addrs, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ff.Map().Partitions {
		c.recMu.Lock()
		rec := c.logs[p.Addr].records[p.DataID]
		c.recMu.Unlock()
		if rec == nil || rec.req.Type != fedrpc.Put {
			t.Fatalf("no logged PUT for partition %+v", p)
		}
		cols, beg := rec.req.Data.Frame, p.Range.RowBeg
		if len(cols) != fr.NumCols() {
			t.Fatalf("logged PUT has %d columns, want %d", len(cols), fr.NumCols())
		}
		shared := []bool{
			&cols[0].Floats[0] == &fr.Column(0).Floats[beg],
			&cols[1].Ints[0] == &fr.Column(1).Ints[beg],
			&cols[2].Strings[0] == &fr.Column(2).Strings[beg],
			&cols[2].NA[0] == &fr.Column(2).NA[beg],
			&cols[3].Bools[0] == &fr.Column(3).Bools[beg],
		}
		for j, ok := range shared {
			if !ok {
				t.Fatalf("partition %v: array %d of the logged PUT is a copy of fr's", p.Range, j)
			}
		}
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
	// A partial carries only its op's statistics, so its op is in its trace.
	if instTrace(s, partialInst("uac_partial", matrix.AggMean, 1, 2).Inst) ==
		instTrace(s, partialInst("uac_partial", matrix.AggMin, 1, 2).Inst) {
		t.Fatal("mean and min partials of one input produced the same trace")
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
		{Type: fedrpc.Clear},
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
