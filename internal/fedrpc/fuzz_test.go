package fedrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"exdra/internal/matrix"
)

// testStream builds one direction of a connection in memory: a single
// buffered writer and gob encoder shared by every frame written to it, as
// on a real connection.
type testStream struct {
	buf bytes.Buffer
	bw  *bufio.Writer
	enc *gob.Encoder
}

func newTestStream() *testStream {
	ts := &testStream{}
	ts.bw = bufio.NewWriterSize(&ts.buf, 1<<16)
	ts.enc = gob.NewEncoder(ts.bw)
	return ts
}

// writer returns a frame writer for tag that has the stream to itself:
// its yield gives way to nobody.
func (ts *testStream) writer(tag uint64) *frameWriter {
	return &frameWriter{bw: ts.bw, w: &ts.buf, enc: ts.enc, tag: tag, yield: func() error { return nil }}
}

// bytes flushes the stream and returns everything written so far.
func (ts *testStream) bytes(t interface{ Fatal(...any) }) []byte {
	if err := ts.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return ts.buf.Bytes()
}

// leBytes renders f as its little-endian wire bytes on any host.
func leBytes(f []float64) []byte {
	b := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// slabChunks cuts the slabs of ps into the chunks a writer sends for them,
// in wire order.
func slabChunks(ps ...Payload) [][]byte {
	var out [][]byte
	cut := func(b []byte) {
		for len(b) > 0 {
			n := min(len(b), slabChunk)
			out = append(out, b[:n])
			b = b[n:]
		}
	}
	for _, p := range ps {
		cut(leBytes(p.Values))
		cut(p.Bytes)
	}
	return out
}

// encodeBatch renders a request batch as a one-call v3 stream for the fuzz
// seed corpus.
func encodeBatch(t interface{ Fatal(...any) }, reqs []Request, deadlineNanos int64, tag uint64) []byte {
	ts := newTestStream()
	if err := writeBatch(ts.writer(tag), reqs, deadlineNanos); err != nil {
		t.Fatal(err)
	}
	return ts.bytes(t)
}

// encodeReply renders a response batch as a one-call v3 stream.
func encodeReply(t interface{ Fatal(...any) }, resps []Response, tag uint64) []byte {
	ts := newTestStream()
	if err := writeReply(ts.writer(tag), resps, 42); err != nil {
		t.Fatal(err)
	}
	return ts.bytes(t)
}

// readReply reads frames until a response batch is complete, as the
// client's reader does, and returns it with the server-side handler time
// and the echoed call tag.
func readReply(r *replyReader) ([]Response, int64, uint64, error) {
	for {
		tag, b, err := r.readFrame()
		if err != nil {
			return nil, 0, 0, err
		}
		if b != nil {
			return b.env.responses(b.data), b.env.ExecNanos, tag, nil
		}
	}
}

func requestStreamReader(data []byte) *requestReader {
	return newFrameReader[wireEnvelope](bufio.NewReader(bytes.NewReader(data)), 8)
}

func replyStreamReader(data []byte) *replyReader {
	return newFrameReader[wireReply](bufio.NewReader(bytes.NewReader(data)), 8)
}

// checkDecoded fails the fuzz run on a payload that decoded inconsistent
// with its own descriptor.
func checkDecoded(t *testing.T, i int, p Payload) {
	if p.Rows < 0 || p.Cols < 0 {
		t.Fatalf("payload %d decoded negative shape %dx%d", i, p.Rows, p.Cols)
	}
	if p.Kind == PayloadMatrix && p.Values != nil && len(p.Values) != p.Rows*p.Cols {
		t.Fatalf("payload %d decoded %d values for %dx%d", i, len(p.Values), p.Rows, p.Cols)
	}
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
		reqs, deadline, tag, err := readBatch(requestStreamReader(data))
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
			checkDecoded(t, i, req.Data)
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
		resps, _, _, err := readReply(replyStreamReader(data))
		if err != nil {
			return
		}
		for i, resp := range resps {
			checkDecoded(t, i, resp.Data)
		}
	})
}

// chunkFrame renders one chunk frame by hand, so a seed can put any tag
// and length on the wire.
func chunkFrame(tag uint64, p []byte) []byte {
	var hdr [chunkHeaderLen]byte
	hdr[0] = frameChunk
	binary.LittleEndian.PutUint64(hdr[1:], tag)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(p)))
	return append(hdr[:], p...)
}

// interleavedStream renders one direction of a connection on which the
// bulk call bulkTag and the small call smallTag overlap: the bulk
// envelope, one bulk chunk, the small call's envelope and chunks, then the
// rest of the bulk chunks — what the round-robin writer sends when the
// small call arrives mid-slab. extra, when set, writes more frames after
// the small call's, before the remaining bulk chunks.
func interleavedStream(t interface{ Fatal(...any) }, reply bool, bulkTag, smallTag uint64, bulk, small Payload, extra func(env func(uint64, Payload), raw func([]byte))) []byte {
	ts := newTestStream()
	env := func(tag uint64, p Payload) {
		var e any = requestEnvelope([]Request{{Type: Put, ID: int64(tag), Data: p}}, 0, tag)
		if reply {
			e = replyEnvelope([]Response{{OK: true, Data: p, Epoch: 5}}, 1, tag)
		}
		if err := ts.writer(tag).envelope(e); err != nil {
			t.Fatal(err)
		}
	}
	raw := func(b []byte) {
		if _, err := ts.bw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	bulkChunks := slabChunks(bulk)
	env(bulkTag, bulk)
	raw(chunkFrame(bulkTag, bulkChunks[0]))
	env(smallTag, small)
	for _, c := range slabChunks(small) {
		raw(chunkFrame(smallTag, c))
	}
	if extra != nil {
		extra(env, raw)
	}
	for _, c := range bulkChunks[1:] {
		raw(chunkFrame(bulkTag, c))
	}
	return ts.bytes(t)
}

// FuzzWireStream decodes whole multi-tag streams, in either direction
// (reply selects the response envelopes), with frames of several calls
// interleaved. Every torn interleave — a chunk for an unknown or completed
// tag, a chunk past its slab, a second envelope for an open tag — a zero
// tag and a stream cut inside a chunk must end the stream with an error:
// never a panic, never a batch completed from another tag's bytes, never an
// allocation beyond the per-slab growth guard.
func FuzzWireStream(f *testing.F) {
	bulk := MatrixPayload(matrix.Fill(300, 60, 0.25)) // 18000 floats: three chunks
	small := MatrixPayload(matrix.FromRows([][]float64{{1, -2}, {3.5, math.Inf(1)}}))
	for _, reply := range []bool{false, true} {
		f.Add(interleavedStream(f, reply, 1, 2, bulk, small, nil), reply)
		// A chunk for a tag that never opened, and for one just completed.
		for _, tag := range []uint64{9, 2} {
			f.Add(interleavedStream(f, reply, 1, 2, bulk, small, func(_ func(uint64, Payload), raw func([]byte)) {
				raw(chunkFrame(tag, make([]byte, 8)))
			}), reply)
		}
		// A second envelope for the bulk tag while its slab is open.
		f.Add(interleavedStream(f, reply, 1, 2, bulk, small, func(env func(uint64, Payload), _ func([]byte)) {
			env(1, small)
		}), reply)
		full := interleavedStream(f, reply, 1, 2, bulk, small, nil)
		// Cut inside the last bulk chunk.
		f.Add(full[:len(full)-1000], reply)
		// Zero tags on both the envelope and its chunks.
		f.Add(interleavedStream(f, reply, 0, 2, bulk, small, nil), reply)
	}
	// A chunk longer than what is left of its slab.
	ts := newTestStream()
	if err := ts.writer(4).envelope(requestEnvelope([]Request{{Type: Put, ID: 4, Data: small}}, 0, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(append(ts.bytes(f), chunkFrame(4, make([]byte, 40))...), false)

	f.Fuzz(func(t *testing.T, data []byte, reply bool) {
		if reply {
			r := replyStreamReader(data)
			for {
				tag, b, err := r.readFrame()
				if err != nil {
					return
				}
				if b == nil {
					continue
				}
				if tag == 0 {
					return // the client's reader rejects it as an unknown call tag
				}
				for i, p := range b.data {
					checkDecoded(t, i, p)
				}
			}
		}
		r := requestStreamReader(data)
		for {
			reqs, _, tag, err := readBatch(r)
			if err != nil {
				return
			}
			if tag == 0 {
				t.Fatal("accepted a request batch without a call tag")
			}
			for i, rq := range reqs {
				checkDecoded(t, i, rq.Data)
			}
		}
	})
}
