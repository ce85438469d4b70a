package fedrpc

import (
	"bytes"
	"encoding/gob"
	"testing"

	"exdra/internal/matrix"
)

// encodeBatch renders a request batch in the v2 wire form (gob control
// envelope + raw slabs) for the fuzz seed corpus.
func encodeBatch(t interface{ Fatal(...any) }, reqs []Request, deadlineNanos int64, tag uint64) []byte {
	var buf bytes.Buffer
	if err := writeBatch(gob.NewEncoder(&buf), &buf, reqs, deadlineNanos, tag); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeReply renders a response batch in the v2 wire form.
func encodeReply(t interface{ Fatal(...any) }, resps []Response, tag uint64) []byte {
	var buf bytes.Buffer
	if err := writeReply(gob.NewEncoder(&buf), &buf, resps, 42, tag); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireEnvelope drives the server-side decode path (readBatch) with
// arbitrary bytes: forged slab lengths, truncated slabs, corrupt
// descriptors, and flipped checksum bits must all surface as errors —
// never a panic, a hang, or an allocation sized by an attacker-controlled
// length field alone.
func FuzzWireEnvelope(f *testing.F) {
	m := matrix.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	f.Add(encodeBatch(f, []Request{{Type: Health}}, 0, 2))
	f.Add(encodeBatch(f, []Request{{Type: Health}}, 0, 0)) // untagged: must be rejected
	f.Add(encodeBatch(f, []Request{
		{Type: Put, ID: 7, Data: MatrixPayload(m)},
		{Type: Get, ID: 7},
	}, int64(5e9), 1))
	f.Add(encodeBatch(f, []Request{{Type: ExecInst, Inst: &Instruction{
		Opcode: "rmvar", Inputs: []int64{1, 2, 3},
	}}}, 1, ^uint64(0)))
	// A hand-forged mutation seed: valid envelope with its tail cut off.
	full := encodeBatch(f, []Request{{Type: Put, ID: 9, Data: MatrixPayload(m)}}, 0, 12)
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		reqs, deadline, tag, err := readBatch(gob.NewDecoder(r), r)
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		if tag == 0 {
			t.Fatal("accepted a request batch without a call tag")
		}
		// Accepted batches must be internally consistent enough to hand to
		// a handler.
		if deadline < 0 {
			t.Fatalf("decoded a negative deadline %d from accepted input", deadline)
		}
		for i, req := range reqs {
			if req.Data.Rows < 0 || req.Data.Cols < 0 {
				t.Fatalf("request %d decoded negative shape %dx%d", i, req.Data.Rows, req.Data.Cols)
			}
		}
	})
}

// FuzzWireReply drives the client-side decode path (readReply) with
// arbitrary bytes under the same contract: error, never panic, never an
// unbounded allocation.
func FuzzWireReply(f *testing.F) {
	m := matrix.FromRows([][]float64{{1.5, -2.5}, {3.25, 0}})
	f.Add(encodeReply(f, []Response{{OK: true}}, 1))
	f.Add(encodeReply(f, []Response{
		{OK: true, Data: MatrixPayload(m), Epoch: 3},
		{Err: "deadline exceeded", Code: CodeDeadlineExceeded},
	}, 7))
	f.Add(encodeReply(f, []Response{{OK: true}}, ^uint64(0)))
	full := encodeReply(f, []Response{{OK: true, Data: MatrixPayload(m)}}, 9999)
	f.Add(full[:len(full)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		resps, _, _, err := readReply(gob.NewDecoder(r), r)
		if err != nil {
			return
		}
		for i, resp := range resps {
			if resp.Data.Rows < 0 || resp.Data.Cols < 0 {
				t.Fatalf("response %d decoded negative shape %dx%d", i, resp.Data.Rows, resp.Data.Cols)
			}
		}
	})
}
