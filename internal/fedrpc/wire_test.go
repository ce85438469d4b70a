package fedrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"exdra/internal/frame"
	"exdra/internal/matrix"
)

// fieldNames lists a struct type's field names in declaration order.
func fieldNames(t reflect.Type) []string {
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// TestWireRequestFieldParity pins the wire structs to their protocol
// counterparts: anyone adding a field to Request/Response/Payload must
// thread it through the binary framing too, or silently lose it on the
// wire. The envelope types mirror the protocol types field-for-field with
// two deliberate exceptions — slab contents become lengths, and the
// per-response Epoch is hoisted into the reply envelope.
func TestWireRequestFieldParity(t *testing.T) {
	if got, want := fieldNames(reflect.TypeOf(wireRequest{})), fieldNames(reflect.TypeOf(Request{})); !reflect.DeepEqual(got, want) {
		t.Errorf("wireRequest fields %v do not mirror Request fields %v", got, want)
	}

	want := fieldNames(reflect.TypeOf(Response{}))
	// Epoch travels once per batch in wireReply.Epoch, not per response.
	trimmed := want[:0:0]
	for _, n := range want {
		if n != "Epoch" {
			trimmed = append(trimmed, n)
		}
	}
	if got := fieldNames(reflect.TypeOf(wireResponse{})); !reflect.DeepEqual(got, trimmed) {
		t.Errorf("wireResponse fields %v do not mirror Response-minus-Epoch %v", got, trimmed)
	}
	if _, ok := reflect.TypeOf(wireReply{}).FieldByName("Epoch"); !ok {
		t.Error("wireReply lost its hoisted Epoch field")
	}

	// Payload's slab fields become length descriptors; everything else must
	// carry over by name. The CRC fields are wire-only metadata (each slab's
	// checksum) with no Payload counterpart.
	slabbed := map[string]string{"Values": "NVals", "Bytes": "NBytes"}
	wireOnly := map[string]bool{"ValsCRC": true, "BytesCRC": true}
	pt, wt := reflect.TypeOf(Payload{}), reflect.TypeOf(wirePayload{})
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		if repl, ok := slabbed[name]; ok {
			name = repl
		}
		if _, ok := wt.FieldByName(name); !ok {
			t.Errorf("wirePayload is missing a counterpart for Payload.%s (want field %q)", pt.Field(i).Name, name)
		}
	}
	if pt.NumField()+len(wireOnly) != wt.NumField() {
		t.Errorf("wirePayload has %d fields for Payload's %d (+%d wire-only)", wt.NumField(), pt.NumField(), len(wireOnly))
	}
	for name := range wireOnly {
		if _, ok := wt.FieldByName(name); !ok {
			t.Errorf("wirePayload is missing wire-only field %q", name)
		}
	}
}

// TestFloatSlabGoldenBytes pins the slab encoding to a chunk frame of raw
// little-endian IEEE-754 — byte-for-byte, header included, on both the
// zero-copy and the portable conversion path — and round-trips NaN and the
// infinities bit-exactly.
func TestFloatSlabGoldenBytes(t *testing.T) {
	vals := []float64{0, 1, -2.5, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	golden := []byte{'C', 7, 0, 0, 0, 0, 0, 0, 0, byte(len(vals) * 8), 0, 0, 0}
	for _, v := range vals {
		golden = binary.LittleEndian.AppendUint64(golden, math.Float64bits(v))
	}

	writers := map[string]func(*frameWriter) error{
		"native":   func(fw *frameWriter) error { return fw.slabs(Payload{Values: vals}) },
		"portable": func(fw *frameWriter) error { return fw.floatSlabPortable(vals) },
	}
	for name, write := range writers {
		ts := newTestStream()
		if err := write(ts.writer(7)); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		if got := ts.bytes(t); !bytes.Equal(got, golden) {
			t.Fatalf("%s slab bytes:\n got % x\nwant % x", name, got, golden)
		}
	}

	readers := map[string]func(*bytes.Reader, []float64) error{
		"native":   func(r *bytes.Reader, f []float64) error { return readFloatSlab(r, f) },
		"portable": func(r *bytes.Reader, f []float64) error { return readFloatSlabPortable(r, f) },
	}
	for name, read := range readers {
		got := make([]float64, len(vals))
		if err := read(bytes.NewReader(golden[chunkHeaderLen:]), got); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s read[%d] = %v (bits %x), want %v", name, i, got[i], math.Float64bits(got[i]), vals[i])
			}
		}
	}
}

// TestFloatSlabPortableChunking pushes a slab past one 64 KiB chunk so the
// chunk loops of both paths are exercised: the portable writer must emit
// the same frames as the zero-copy one, each at most slabChunk bytes, and
// the portable reader must rebuild the slab from them.
func TestFloatSlabPortableChunking(t *testing.T) {
	vals := make([]float64, 3*slabChunk/8+5) // ~3.6 chunks
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	portable, native := newTestStream(), newTestStream()
	if err := portable.writer(3).floatSlabPortable(vals); err != nil {
		t.Fatal(err)
	}
	if err := native.writer(3).slabs(Payload{Values: vals}); err != nil {
		t.Fatal(err)
	}
	stream := portable.bytes(t)
	if !bytes.Equal(stream, native.bytes(t)) {
		t.Fatal("portable and zero-copy writers framed the slab differently")
	}
	if want := len(vals)*8 + 4*chunkHeaderLen; len(stream) != want {
		t.Fatalf("portable write emitted %d bytes, want %d (four chunk frames)", len(stream), want)
	}
	got := make([]float64, len(vals))
	r := bytes.NewReader(stream)
	for off := 0; off < len(got); {
		var hdr [chunkHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatal(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[9:])) / 8
		if n*8 > slabChunk {
			t.Fatalf("chunk of %d bytes exceeds slabChunk", n*8)
		}
		if err := readFloatSlabPortable(r, got[off:off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("chunked round trip diverged at %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// payloadEqual compares payloads treating NaN as equal to itself (bitwise
// float comparison) and distinguishing nil from empty slices.
func payloadEqual(a, b Payload) bool {
	if a.Kind != b.Kind || a.Rows != b.Rows || a.Cols != b.Cols ||
		math.Float64bits(a.Scalar) != math.Float64bits(b.Scalar) {
		return false
	}
	if (a.Values == nil) != (b.Values == nil) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	if (a.Bytes == nil) != (b.Bytes == nil) || !bytes.Equal(a.Bytes, b.Bytes) {
		return false
	}
	return reflect.DeepEqual(a.Frame, b.Frame)
}

// wirePayloadCases covers every PayloadKind plus the slab edge shapes:
// nil vs present-but-empty, single element, multi-chunk large, and the
// non-finite values raw IEEE framing must preserve.
func wirePayloadCases() map[string]Payload {
	big := matrix.Rand(rand.New(rand.NewSource(7)), 123, 57, -1, 1)
	bigVals := big.Data()
	bigVals[0] = math.NaN()
	bigVals[1] = math.Inf(1)
	bigVals[len(bigVals)-1] = math.Inf(-1)
	f := frame.MustNew(
		frame.StringColumn("name", []string{"a", "", "c"}),
		frame.FloatColumn("v", []float64{1, 2, 3}),
	)
	return map[string]Payload{
		"none":         {},
		"matrix-1x1":   MatrixPayload(matrix.FromRows([][]float64{{42.5}})),
		"matrix-empty": {Kind: PayloadMatrix, Rows: 0, Cols: 0, Values: []float64{}},
		"matrix-large": MatrixPayload(big),
		"scalar":       ScalarPayload(-0.125),
		"bytes":        BytesPayload([]byte{0x00, 0xff, 'X', 'D', 'R'}),
		"bytes-empty":  BytesPayload([]byte{}),
		"frame":        FramePayload(f),
	}
}

// TestWireBatchRoundTrip frames request batches through an in-memory
// stream for every payload kind and checks bit-exact reconstruction —
// including a multi-request batch that interleaves several slabs behind
// one envelope.
func TestWireBatchRoundTrip(t *testing.T) {
	cases := wirePayloadCases()
	var batch []Request
	var id int64
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			req := Request{Type: Put, ID: 9, Filename: name, Privacy: 2,
				ColPrivacy: []int{0, 1}, Data: p,
				Inst: &Instruction{Opcode: "mm", Inputs: []int64{1, 2}, Output: 3, Scalars: []float64{0.5}}}
			got, _, _, err := readBatch(requestStreamReader(encodeBatch(t, []Request{req}, 0, 1)))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("decoded %d requests, want 1", len(got))
			}
			g := got[0]
			if g.Type != req.Type || g.ID != req.ID || g.Filename != req.Filename ||
				g.Privacy != req.Privacy || !reflect.DeepEqual(g.ColPrivacy, req.ColPrivacy) ||
				!reflect.DeepEqual(g.Inst, req.Inst) {
				t.Fatalf("envelope fields diverged:\n got %+v\nwant %+v", g, req)
			}
			if !payloadEqual(g.Data, req.Data) {
				t.Fatalf("payload diverged:\n got %+v\nwant %+v", g.Data, req.Data)
			}
		})
		id++
		batch = append(batch, Request{Type: Put, ID: id, Data: p})
	}

	src := bytes.NewReader(encodeBatch(t, batch, 0, 31))
	stream := bufio.NewReader(src)
	got, _, tag, err := readBatch(newFrameReader[wireEnvelope](stream, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d requests, want %d", len(got), len(batch))
	}
	if tag != 31 {
		t.Fatalf("decoded call tag %d, want 31", tag)
	}
	for i := range batch {
		if !payloadEqual(got[i].Data, batch[i].Data) {
			t.Fatalf("batched slab %d misaligned:\n got %+v\nwant %+v", i, got[i].Data, batch[i].Data)
		}
	}
	if n := src.Len() + stream.Buffered(); n != 0 {
		t.Fatalf("%d unread bytes after batch decode", n)
	}
}

// TestWireReplyRoundTrip checks the response direction, including the
// epoch hoist: the envelope carries the worker epoch once, and decoding
// stamps it back onto every response.
func TestWireReplyRoundTrip(t *testing.T) {
	cases := wirePayloadCases()
	resps := []Response{
		{OK: true, Data: cases["matrix-large"], Epoch: 0xfeed},
		{OK: false, Err: "no object 4", Epoch: 0xfeed},
		{OK: true, Data: cases["bytes"], Epoch: 0xfeed},
	}
	ts := newTestStream()
	if err := writeReply(ts.writer(77), resps, 12345); err != nil {
		t.Fatal(err)
	}
	got, execNanos, tag, err := readReply(replyStreamReader(ts.bytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if execNanos != 12345 {
		t.Fatalf("ExecNanos = %d, want 12345", execNanos)
	}
	if tag != 77 {
		t.Fatalf("Tag = %d, want the echoed call tag 77", tag)
	}
	if len(got) != len(resps) {
		t.Fatalf("decoded %d responses, want %d", len(got), len(resps))
	}
	for i, r := range got {
		if r.Epoch != 0xfeed {
			t.Fatalf("response %d epoch = %#x, want the hoisted batch epoch 0xfeed", i, r.Epoch)
		}
		if r.OK != resps[i].OK || r.Err != resps[i].Err || !payloadEqual(r.Data, resps[i].Data) {
			t.Fatalf("response %d diverged:\n got %+v\nwant %+v", i, r, resps[i])
		}
	}
}

// TestReadPayloadRejectsCorruptLengths forges slab descriptors a hostile
// or corrupted envelope could carry and sends each through the request
// reader; it must reject them as a desync at the envelope, before
// allocating anything for the slab.
func TestReadPayloadRejectsCorruptLengths(t *testing.T) {
	cases := map[string]wirePayload{
		"negative-nvals":  {Kind: PayloadMatrix, NVals: -7},
		"negative-nbytes": {Kind: PayloadBytes, NVals: -1, NBytes: -2},
		"huge-nvals":      {Kind: PayloadMatrix, Rows: 1 << 16, Cols: 1 << 16, NVals: 1 << 32},
		"huge-nbytes":     {Kind: PayloadBytes, NVals: -1, NBytes: 1 << 35},
		"shape-mismatch":  {Kind: PayloadMatrix, Rows: 3, Cols: 3, NVals: 8},
	}
	for name, wp := range cases {
		ts := newTestStream()
		env := requestEnvelope([]Request{{Type: Put, ID: 1}}, 0, 1)
		env.Requests[0].Data = wp
		if err := ts.writer(1).envelope(env); err != nil {
			t.Fatal(err)
		}
		r := requestStreamReader(ts.bytes(t))
		if _, _, _, err := readBatch(r); !errors.Is(err, ErrDesync) {
			t.Errorf("%s: forged descriptor %+v gave %v, want ErrDesync", name, wp, err)
		}
		if len(r.open) != 0 {
			t.Errorf("%s: forged descriptor opened a batch", name)
		}
	}
}

// oldPreludes are what builds of the earlier wire formats send and answer
// with: v1 (gob or binary by a sniffed byte) and v2 (whole slabs behind
// their envelope, no chunk frames).
var oldPreludes = map[string][5]byte{
	"v1": {0x00, 'X', 'D', 'R', 1},
	"v2": {0x00, 'X', 'D', 'R', 2},
}

// TestWireVersionMismatchClient: a client that reaches an older server
// gets a typed error naming both versions from Dial, not a silent
// downgrade.
func TestWireVersionMismatchClient(t *testing.T) {
	for name, old := range oldPreludes {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// An older server acks with its own prelude whatever it is sent.
				var got [5]byte
				if _, err := io.ReadFull(conn, got[:]); err != nil {
					return
				}
				_, _ = conn.Write(old[:])
				_, _ = io.Copy(io.Discard, conn)
			}()
			c, err := Dial(ln.Addr().String(), Options{DialTimeout: 5 * time.Second})
			if err == nil {
				c.Close()
				t.Fatalf("dial to a %s server succeeded", name)
			}
			if !errors.Is(err, ErrWireVersion) {
				t.Fatalf("dial to a %s server = %v, want ErrWireVersion", name, err)
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "v3") {
				t.Fatalf("error %q does not name both versions", err)
			}
		})
	}
}

// TestWireVersionMismatchServer: an older client that reaches this server
// is told the server's version before the connection closes, so it too can
// report the mismatch instead of a bare EOF; the server half names both
// versions in its own error.
func TestWireVersionMismatchServer(t *testing.T) {
	s, _ := startServer(t, Options{})
	for name, old := range oldPreludes {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(old[:]); err != nil {
				t.Fatal(err)
			}
			var got [5]byte
			if _, err := io.ReadFull(conn, got[:]); err != nil {
				t.Fatalf("server closed on a %s prelude without answering: %v", name, err)
			}
			if got != wirePrelude {
				t.Fatalf("server answered % x, want its own prelude % x", got, wirePrelude)
			}
			if n, err := conn.Read(got[:]); err != io.EOF {
				t.Fatalf("read after the mismatched handshake = %d bytes, %v; want the connection closed", n, err)
			}

			// The server half reports the same typed error.
			var out bytes.Buffer
			bw := bufio.NewWriter(&out)
			err = serverHandshake(bufio.NewReader(bytes.NewReader(old[:])), bw)
			if !errors.Is(err, ErrWireVersion) {
				t.Fatalf("serverHandshake with a %s client = %v, want ErrWireVersion", name, err)
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "v3") {
				t.Fatalf("server error %q does not name both versions", err)
			}
		})
	}
}

// decodeStream reads every frame of a stream in one direction and returns
// the completed batches' payloads by tag, and the error that ended it
// (io.EOF for a clean end).
func decodeStream(data []byte, reply bool) (map[uint64][]Payload, error) {
	done := map[uint64][]Payload{}
	if reply {
		r := replyStreamReader(data)
		for {
			tag, b, err := r.readFrame()
			if err != nil {
				return done, err
			}
			if b != nil {
				done[tag] = b.data
			}
		}
	}
	r := requestStreamReader(data)
	for {
		reqs, _, tag, err := readBatch(r)
		if err != nil {
			return done, err
		}
		for _, rq := range reqs {
			done[tag] = append(done[tag], rq.Data)
		}
	}
}

// TestInterleavedStreamReassembly decodes the fuzz seeds' streams in both
// directions: the clean interleave reassembles both calls bitwise, and
// every torn interleave is a typed desync — never a batch completed from
// another tag's bytes.
func TestInterleavedStreamReassembly(t *testing.T) {
	bulk := MatrixPayload(matrix.Rand(rand.New(rand.NewSource(5)), 300, 60, -1, 1))
	small := MatrixPayload(matrix.FromRows([][]float64{{1, -2}, {math.NaN(), math.Inf(1)}}))
	for _, reply := range []bool{false, true} {
		done, err := decodeStream(interleavedStream(t, reply, 1, 2, bulk, small, nil), reply)
		if err != io.EOF {
			t.Fatalf("reply=%v: clean interleave ended with %v", reply, err)
		}
		if len(done) != 2 || !payloadEqual(done[1][0], bulk) || !payloadEqual(done[2][0], small) {
			t.Fatalf("reply=%v: clean interleave did not reassemble both calls bitwise", reply)
		}

		torn := map[string]func(env func(uint64, Payload), raw func([]byte)){
			"chunk for an unknown tag":  func(_ func(uint64, Payload), raw func([]byte)) { raw(chunkFrame(9, make([]byte, 8))) },
			"chunk for a completed tag": func(_ func(uint64, Payload), raw func([]byte)) { raw(chunkFrame(2, make([]byte, 8))) },
			"chunk over slabChunk":      func(_ func(uint64, Payload), raw func([]byte)) { raw(chunkFrame(1, make([]byte, slabChunk+8))) },
			"chunk splitting a float":   func(_ func(uint64, Payload), raw func([]byte)) { raw(chunkFrame(1, make([]byte, 12))) },
			"second envelope, open tag": func(env func(uint64, Payload), _ func([]byte)) { env(1, small) },
			"unknown frame kind":        func(_ func(uint64, Payload), raw func([]byte)) { raw([]byte{'Z'}) },
		}
		for name, extra := range torn {
			done, err := decodeStream(interleavedStream(t, reply, 1, 2, bulk, small, extra), reply)
			if !errors.Is(err, ErrDesync) {
				t.Fatalf("reply=%v, %s: stream ended with %v, want ErrDesync", reply, name, err)
			}
			if _, ok := done[1]; ok {
				t.Fatalf("reply=%v, %s: the bulk call completed on a torn stream", reply, name)
			}
		}

		full := interleavedStream(t, reply, 1, 2, bulk, small, nil)
		if _, err := decodeStream(full[:len(full)-1000], reply); err != io.ErrUnexpectedEOF {
			t.Fatalf("reply=%v: stream cut inside a chunk ended with %v, want io.ErrUnexpectedEOF", reply, err)
		}
	}

	// A zero tag is no call's: the server rejects the batch as untagged.
	_, err := decodeStream(interleavedStream(t, false, 0, 2, bulk, small, nil), false)
	if !errors.Is(err, ErrDesync) || !strings.Contains(err.Error(), "without a call tag") {
		t.Fatalf("zero-tag batch = %v, want the untagged-batch desync", err)
	}

	// A chunk longer than what is left of its slab.
	ts := newTestStream()
	if err := ts.writer(4).envelope(requestEnvelope([]Request{{Type: Put, ID: 4, Data: small}}, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStream(append(ts.bytes(t), chunkFrame(4, make([]byte, 40))...), false); !errors.Is(err, ErrDesync) {
		t.Fatalf("chunk past its slab = %v, want ErrDesync", err)
	}

	// A forged slab checksum surfaces when the slab completes.
	ts = newTestStream()
	env := requestEnvelope([]Request{{Type: Put, ID: 1, Data: small}}, 0, 3)
	env.Requests[0].Data.ValsCRC ^= 1
	if err := ts.writer(3).envelope(env); err != nil {
		t.Fatal(err)
	}
	stream := append(ts.bytes(t), chunkFrame(3, leBytes(small.Values))...)
	if _, err := decodeStream(stream, false); !errors.Is(err, ErrDesync) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("forged checksum = %v, want a checksum desync", err)
	}
}

// TestFrameReaderBoundsOpenBatches: a stream that opens more batches than
// the in-flight window before completing any is a desync, and forged slabs
// on every open tag together allocate no more ahead of their bytes than
// one maxEagerSlabBytes budget, which completed slabs give back.
func TestFrameReaderBoundsOpenBatches(t *testing.T) {
	ts := newTestStream()
	p := MatrixPayload(matrix.Fill(2, 2, 1))
	for tag := uint64(1); tag <= 9; tag++ {
		if err := ts.writer(tag).envelope(requestEnvelope([]Request{{Type: Put, Data: p}}, 0, tag)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := decodeStream(ts.bytes(t), false); !errors.Is(err, ErrDesync) {
		t.Fatalf("nine open batches on a window of eight = %v, want ErrDesync", err)
	}

	// A forged 1 GiB slab on every tag the window allows, each with one
	// chunk behind it.
	const window, chunk = 8, 64
	n := 1 << 27
	ts = newTestStream()
	for tag := uint64(1); tag <= window; tag++ {
		env := requestEnvelope([]Request{{Type: Put, Data: Payload{Kind: PayloadMatrix, Rows: n, Cols: 1, Values: []float64{}}}}, 0, tag)
		env.Requests[0].Data.NVals = n
		if err := ts.writer(tag).envelope(env); err != nil {
			t.Fatal(err)
		}
	}
	stream := ts.bytes(t)
	for tag := uint64(1); tag <= window; tag++ {
		stream = append(stream, chunkFrame(tag, make([]byte, chunk))...)
	}
	r := requestStreamReader(stream)
	for i := 0; i < 2*window; i++ {
		if _, _, err := r.readFrame(); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, b := range r.open {
		total += cap(b.data[0].Values) * 8
	}
	if limit := maxEagerSlabBytes + 2*window*chunk; total > limit {
		t.Fatalf("%d forged %d-byte slabs allocated %d bytes after one chunk each, want <= %d", window, n*8, total, limit)
	}

	// Completed slabs give their share of the budget back.
	bulk := MatrixPayload(matrix.Rand(rand.New(rand.NewSource(5)), 300, 60, -1, 1))
	r = requestStreamReader(interleavedStream(t, false, 1, 2, bulk, p, nil))
	for {
		if _, _, _, err := readBatch(r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if r.eager != maxEagerSlabBytes {
		t.Fatalf("eager budget after a clean stream = %d, want all %d back", r.eager, maxEagerSlabBytes)
	}
}
