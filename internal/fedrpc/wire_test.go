package fedrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// TestFloatSlabGoldenBytes pins the slab encoding to raw little-endian
// IEEE-754 — byte-for-byte, on both the zero-copy and the portable
// conversion path — and round-trips NaN and the infinities bit-exactly.
func TestFloatSlabGoldenBytes(t *testing.T) {
	vals := []float64{0, 1, -2.5, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	golden := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(golden[i*8:], math.Float64bits(v))
	}

	writers := map[string]func(*bytes.Buffer) error{
		"native":   func(b *bytes.Buffer) error { return writeFloatSlab(b, vals) },
		"portable": func(b *bytes.Buffer) error { return writeFloatSlabPortable(b, vals) },
	}
	for name, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("%s slab bytes:\n got % x\nwant % x", name, buf.Bytes(), golden)
		}
	}

	readers := map[string]func(*bytes.Reader, []float64) error{
		"native":   func(r *bytes.Reader, f []float64) error { return readFloatSlab(r, f) },
		"portable": func(r *bytes.Reader, f []float64) error { return readFloatSlabPortable(r, f) },
	}
	for name, read := range readers {
		got := make([]float64, len(vals))
		if err := read(bytes.NewReader(golden), got); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s read[%d] = %v (bits %x), want %v", name, i, got[i], math.Float64bits(got[i]), vals[i])
			}
		}
	}
}

// TestFloatSlabPortableChunking pushes a slab past the pooled 64 KiB
// staging buffer so the portable path's chunk loop is exercised.
func TestFloatSlabPortableChunking(t *testing.T) {
	vals := make([]float64, 3*slabChunk/8+5) // ~3.6 chunks
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	if err := writeFloatSlabPortable(&buf, vals); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(vals)*8 {
		t.Fatalf("portable write emitted %d bytes, want %d", buf.Len(), len(vals)*8)
	}
	got := make([]float64, len(vals))
	if err := readFloatSlabPortable(bytes.NewReader(buf.Bytes()), got); err != nil {
		t.Fatal(err)
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
			var buf bytes.Buffer
			if err := writeBatch(gob.NewEncoder(&buf), &buf, []Request{req}, 0, 1); err != nil {
				t.Fatal(err)
			}
			got, _, _, err := readBatch(gob.NewDecoder(&buf), &buf)
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

	var buf bytes.Buffer
	if err := writeBatch(gob.NewEncoder(&buf), &buf, batch, 0, 31); err != nil {
		t.Fatal(err)
	}
	got, _, tag, err := readBatch(gob.NewDecoder(&buf), &buf)
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
	if buf.Len() != 0 {
		t.Fatalf("%d unread bytes after batch decode", buf.Len())
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
	var buf bytes.Buffer
	if err := writeReply(gob.NewEncoder(&buf), &buf, resps, 12345, 77); err != nil {
		t.Fatal(err)
	}
	got, execNanos, tag, err := readReply(gob.NewDecoder(&buf), &buf)
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
// or corrupted envelope could carry; readPayload must reject them before
// allocating.
func TestReadPayloadRejectsCorruptLengths(t *testing.T) {
	cases := map[string]wirePayload{
		"negative-nvals":  {Kind: PayloadMatrix, NVals: -7},
		"negative-nbytes": {Kind: PayloadBytes, NVals: -1, NBytes: -2},
		"huge-nvals":      {Kind: PayloadMatrix, Rows: 1 << 16, Cols: 1 << 16, NVals: 1 << 32},
		"huge-nbytes":     {Kind: PayloadBytes, NVals: -1, NBytes: 1 << 35},
		"shape-mismatch":  {Kind: PayloadMatrix, Rows: 3, Cols: 3, NVals: 8},
	}
	for name, wp := range cases {
		if _, err := readPayload(bytes.NewReader(nil), wp); err == nil {
			t.Errorf("%s: readPayload accepted forged descriptor %+v", name, wp)
		}
	}
}

// oldPrelude is what a wire-format v1 build sends and answers with.
var oldPrelude = [5]byte{0x00, 'X', 'D', 'R', 1}

// TestWireVersionMismatchClient: a client that reaches a v1 server gets a
// typed error naming both versions from Dial, not a silent downgrade.
func TestWireVersionMismatchClient(t *testing.T) {
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
		// A v1 server accepts any prelude version >= 1 and acks with its own.
		var got [5]byte
		if _, err := io.ReadFull(conn, got[:]); err != nil {
			return
		}
		_, _ = conn.Write(oldPrelude[:])
		_, _ = io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String(), Options{DialTimeout: 5 * time.Second})
	if err == nil {
		c.Close()
		t.Fatal("dial to a v1 server succeeded")
	}
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("dial to a v1 server = %v, want ErrWireVersion", err)
	}
	if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("error %q does not name both versions", err)
	}
}

// TestWireVersionMismatchServer: a v1 client that reaches this server is
// told the server's version before the connection closes, so it too can
// report the mismatch instead of a bare EOF.
func TestWireVersionMismatchServer(t *testing.T) {
	s, _ := startServer(t, Options{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(oldPrelude[:]); err != nil {
		t.Fatal(err)
	}
	var got [5]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil {
		t.Fatalf("server closed on a v1 prelude without answering: %v", err)
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
	err = serverHandshake(bufio.NewReader(bytes.NewReader(oldPrelude[:])), bw)
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("serverHandshake with a v1 client = %v, want ErrWireVersion", err)
	}
}
