package worker

import (
	"strings"
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

func put(t *testing.T, w *Worker, id int64, m *matrix.Dense, lvl privacy.Level) {
	t.Helper()
	resp := w.Handle([]fedrpc.Request{{
		Type: fedrpc.Put, ID: id, Privacy: int(lvl), Data: fedrpc.MatrixPayload(m),
	}})
	if !resp[0].OK {
		t.Fatalf("put: %s", resp[0].Err)
	}
}

func exec(t *testing.T, w *Worker, inst fedrpc.Instruction) fedrpc.Response {
	t.Helper()
	return w.Handle([]fedrpc.Request{{Type: fedrpc.ExecInst, Inst: &inst}})[0]
}

func TestPutGetClear(t *testing.T) {
	w := New("")
	m := matrix.FromRows([][]float64{{1, 2}})
	put(t, w, 1, m, privacy.Public)
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 1}})[0]
	if !resp.OK || !resp.Data.Matrix().EqualApprox(m, 0) {
		t.Fatal("get")
	}
	if w.NumObjects() != 1 {
		t.Fatal("object count")
	}
	w.Handle([]fedrpc.Request{{Type: fedrpc.Clear}})
	if w.NumObjects() != 0 {
		t.Fatal("clear")
	}
}

func TestGetPrivacyEnforcement(t *testing.T) {
	w := New("")
	m := matrix.Fill(2, 2, 1)
	put(t, w, 1, m, privacy.Private)
	put(t, w, 2, m, privacy.PrivateAggregation)
	for _, id := range []int64{1, 2} {
		resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: id}})[0]
		if resp.OK || !strings.Contains(resp.Err, "privacy") {
			t.Fatalf("GET %d allowed: %+v", id, resp)
		}
	}
	// Aggregates of PrivateAggregation data become Public.
	r := exec(t, w, fedrpc.Instruction{Opcode: "ua_partial", Inputs: []int64{2}, Output: 3})
	if !r.OK {
		t.Fatal(r.Err)
	}
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 3}})[0]
	if !resp.OK {
		t.Fatalf("aggregate GET denied: %s", resp.Err)
	}
	// Aggregates of Private data stay Private.
	r = exec(t, w, fedrpc.Instruction{Opcode: "ua_partial", Inputs: []int64{1}, Output: 4})
	if !r.OK {
		t.Fatal(r.Err)
	}
	resp = w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 4}})[0]
	if resp.OK {
		t.Fatal("aggregate of Private data leaked")
	}
}

func TestPrivacyPropagationThroughTransparentOps(t *testing.T) {
	w := New("")
	put(t, w, 1, matrix.Fill(2, 2, 3), privacy.PrivateAggregation)
	r := exec(t, w, fedrpc.Instruction{Opcode: "sqrt", Inputs: []int64{1}, Output: 2})
	if !r.OK {
		t.Fatal(r.Err)
	}
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 2}})[0]
	if resp.OK {
		t.Fatal("transparent op declassified data")
	}
}

func TestInstructionErrors(t *testing.T) {
	w := New("")
	put(t, w, 1, matrix.Fill(2, 2, 1), privacy.Public)
	if r := exec(t, w, fedrpc.Instruction{Opcode: "nosuch", Inputs: []int64{1}, Output: 2}); r.OK {
		t.Fatal("unknown opcode accepted")
	}
	if r := exec(t, w, fedrpc.Instruction{Opcode: "sqrt", Inputs: []int64{99}, Output: 2}); r.OK {
		t.Fatal("missing input accepted")
	}
	if r := exec(t, w, fedrpc.Instruction{Opcode: "replace", Inputs: []int64{1}, Output: 2}); r.OK {
		t.Fatal("missing scalars accepted")
	}
	if r := w.Handle([]fedrpc.Request{{Type: fedrpc.ExecInst}})[0]; r.OK {
		t.Fatal("nil instruction accepted")
	}
}

func TestRmvar(t *testing.T) {
	w := New("")
	put(t, w, 1, matrix.Fill(1, 1, 1), privacy.Public)
	if r := exec(t, w, fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{1}}); !r.OK {
		t.Fatal(r.Err)
	}
	if w.NumObjects() != 0 {
		t.Fatal("rmvar left objects")
	}
}

func TestReadPathSecurity(t *testing.T) {
	w := New(t.TempDir())
	for _, bad := range []string{"../etc/passwd", "/etc/passwd", "a/../../x.bin"} {
		r := w.Handle([]fedrpc.Request{{Type: fedrpc.Read, ID: 1, Filename: bad}})[0]
		if r.OK {
			t.Fatalf("path %q accepted", bad)
		}
	}
	r := w.Handle([]fedrpc.Request{{Type: fedrpc.Read, ID: 1, Filename: "missing.bin"}})[0]
	if r.OK {
		t.Fatal("missing file accepted")
	}
	r = w.Handle([]fedrpc.Request{{Type: fedrpc.Read, ID: 1, Filename: "weird.xyz"}})[0]
	if r.OK || !strings.Contains(r.Err, "unsupported format") {
		t.Fatal("unknown format accepted")
	}
}

func TestReadUsesLineageCache(t *testing.T) {
	dir := t.TempDir()
	m := matrix.Fill(4, 4, 2)
	if err := m.WriteBinaryFile(dir + "/x.bin"); err != nil {
		t.Fatal(err)
	}
	w := New(dir)
	for i := 0; i < 3; i++ {
		r := w.Handle([]fedrpc.Request{{Type: fedrpc.Read, ID: int64(i + 1), Filename: "x.bin"}})[0]
		if !r.OK {
			t.Fatal(r.Err)
		}
	}
	hits, misses := w.Lineage.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("lineage reuse: hits=%d misses=%d", hits, misses)
	}
}

func TestFramePayloadAndUDFs(t *testing.T) {
	w := New("")
	fr := frame.MustNew(frame.StringColumn("A", []string{"x", "y"}))
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Put, ID: 5, Data: fedrpc.FramePayload(fr)}})[0]
	if !resp.OK {
		t.Fatal(resp.Err)
	}
	r := w.Handle([]fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
		Name: "obj_dims", Inputs: []int64{5}}}})[0]
	if !r.OK {
		t.Fatal(r.Err)
	}
	dims := r.Data.Matrix()
	if dims.At(0, 0) != 2 || dims.At(0, 1) != 1 {
		t.Fatalf("obj_dims: %v", dims)
	}
	// Unknown UDF.
	r = w.Handle([]fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "nope"}}})[0]
	if r.OK {
		t.Fatal("unknown UDF accepted")
	}
}

func TestDuplicateUDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	MustRegisterUDF("obj_dims", nil)
}

func TestBatchSemantics(t *testing.T) {
	// A failing request must not abort the rest of the batch.
	w := New("")
	m := matrix.Fill(1, 1, 1)
	resps := w.Handle([]fedrpc.Request{
		{Type: fedrpc.Put, ID: 1, Data: fedrpc.MatrixPayload(m)},
		{Type: fedrpc.Get, ID: 404},
		{Type: fedrpc.Get, ID: 1},
	})
	if !resps[0].OK || resps[1].OK || !resps[2].OK {
		t.Fatalf("batch: %+v", resps)
	}
}

// TestFailingRequestFailsAlone: one bad instruction in a batch served over
// the wire fails that request only — the requests before it (under
// write-behind dispatch, the deferred operations merged ahead of it) have
// executed and keep their OK replies, the ones after it still run. A
// mis-shaped mmchain is a plain error naming the shapes; a kernel that
// panics anyway fails only its own request, and worker.errors counts one
// error per bad request.
func TestFailingRequestFailsAlone(t *testing.T) {
	w := New("")
	w.Metrics = obs.New()
	srv, err := fedrpc.Serve("127.0.0.1:0", w, fedrpc.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := fedrpc.Dial(srv.Addr(), fedrpc.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	put(t, w, 1, matrix.Fill(6, 3, 1), privacy.Public)
	put(t, w, 2, matrix.Fill(4, 1, 1), privacy.Public) // v with 4 rows for a 6x3 X
	put(t, w, 3, matrix.Fill(5, 1, 1), privacy.Public) // 5 rows: no cbind with X

	for _, bad := range []struct {
		inst    fedrpc.Instruction
		wantErr string
	}{
		{fedrpc.Instruction{Opcode: "mmchain", Inputs: []int64{1, 2}, Output: 11}, "X is 6x3, v is 4x1"},
		{fedrpc.Instruction{Opcode: "cbind", Inputs: []int64{1, 3}, Output: 12}, "worker panic"},
	} {
		a := matrix.Fill(2, 2, 7)
		inst := bad.inst
		resps, err := c.Call(
			fedrpc.Request{Type: fedrpc.Put, ID: 10, Data: fedrpc.MatrixPayload(a)},
			fedrpc.Request{Type: fedrpc.ExecInst, Inst: &inst},
			fedrpc.Request{Type: fedrpc.Get, ID: 10},
		)
		if err != nil {
			t.Fatal(err)
		}
		if !resps[0].OK || resps[1].OK || !resps[2].OK {
			t.Fatalf("%s: replies OK=%v,%v,%v (%q, %q, %q), want true,false,true", inst.Opcode,
				resps[0].OK, resps[1].OK, resps[2].OK, resps[0].Err, resps[1].Err, resps[2].Err)
		}
		if !strings.Contains(resps[1].Err, bad.wantErr) {
			t.Errorf("%s: error %q does not say %q", inst.Opcode, resps[1].Err, bad.wantErr)
		}
		if got := resps[2].Data.Matrix(); got == nil || !got.EqualApprox(a, 0) {
			t.Errorf("%s: GET after the failing request returned %v", inst.Opcode, got)
		}
	}
	if n := w.Metrics.Counter("worker.errors").Value(); n != 2 {
		t.Errorf("worker.errors = %d, want 2", n)
	}
}

// TestReplaySafety pins the worker half of the coordinator's retry
// contract: re-executing a retryable batch after a lost reply reproduces
// the same symbol-table state instead of erroring or duplicating.
func TestReplaySafety(t *testing.T) {
	dir := t.TempDir()
	m := matrix.Fill(4, 4, 2)
	if err := m.WriteBinaryFile(dir + "/x.bin"); err != nil {
		t.Fatal(err)
	}
	w := New(dir)
	batch := []fedrpc.Request{
		{Type: fedrpc.Read, ID: 1, Filename: "x.bin"},
		{Type: fedrpc.Put, ID: 2, Data: fedrpc.MatrixPayload(matrix.Fill(2, 2, 7))},
		{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{Opcode: "t", Inputs: []int64{2}, Output: 3}},
	}
	// Execute twice, as a retry after a lost reply would.
	for round := 0; round < 2; round++ {
		for i, r := range w.Handle(batch) {
			if !r.OK {
				t.Fatalf("round %d request %d: %s", round, i, r.Err)
			}
		}
	}
	if n := w.NumObjects(); n != 3 {
		t.Fatalf("replay duplicated state: %d objects, want 3", n)
	}
	// The re-READ was served from the lineage cache, not re-parsed.
	if hits, misses := w.Lineage.Stats(); misses != 1 || hits != 1 {
		t.Fatalf("re-READ not cached: hits=%d misses=%d", hits, misses)
	}
	got := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 2}})[0]
	if !got.OK || !got.Data.Matrix().EqualApprox(matrix.Fill(2, 2, 7), 0) {
		t.Fatal("replayed PUT corrupted the binding")
	}
}

// TestRmvarMissingIDIsNoOp pins the cleanup contract: removing an ID that
// was never bound (or was already removed) succeeds silently, so
// best-effort sweeps after aborted parallel operations are always safe.
func TestRmvarMissingIDIsNoOp(t *testing.T) {
	w := New("")
	put(t, w, 1, matrix.Fill(1, 1, 1), privacy.Public)
	r := exec(t, w, fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{1, 404, 405}})
	if !r.OK {
		t.Fatalf("rmvar with missing IDs failed: %s", r.Err)
	}
	if w.NumObjects() != 0 {
		t.Fatal("bound ID not removed")
	}
	// And again: fully idempotent.
	if r := exec(t, w, fedrpc.Instruction{Opcode: "rmvar", Inputs: []int64{1}}); !r.OK {
		t.Fatalf("repeated rmvar failed: %s", r.Err)
	}
}
