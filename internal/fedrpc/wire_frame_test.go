package fedrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"exdra/internal/frame"
	"exdra/internal/matrix"
)

// frameCases are the frames whose columns must cross the wire bitwise:
// NaN payloads, -0, the infinities, the int64 extremes, empty strings
// beside NA cells, multi-byte UTF-8, a string column whose bytes span
// several chunks, a zero-row frame and all-NA columns.
func frameCases() map[string]*frame.Frame {
	floats := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000000), math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5}
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, 42, -42, 7, 8}
	strs := []string{"", "ü", "日本語", "🙂 smile", "", "x\x00y", "tab\t", "ascii", "Ωmega", ""}
	strNA := []bool{false, false, false, false, true, false, false, false, false, true}
	bools := []bool{true, false, true, true, false, false, true, false, true, false}
	boolNA := []bool{false, true, false, false, false, false, false, false, false, true}
	allNA := make([]bool, len(floats))
	for i := range allNA {
		allNA[i] = true
	}

	long := make([]string, 6000) // ~290 KB of string bytes: five chunks
	longNA := make([]bool, len(long))
	seq := make([]float64, len(long))
	for i := range long {
		long[i] = fmt.Sprintf("row %05d · %s", i, strings.Repeat("é", i%61))
		longNA[i] = i%97 == 0
		seq[i] = float64(i) / 3
	}

	return map[string]*frame.Frame{
		"edge-cells": frame.MustNew(
			frame.FloatColumn("f", floats),
			frame.IntColumn("i", ints),
			&frame.Column{Name: "s", Type: frame.String, Strings: strs, NA: strNA},
			&frame.Column{Name: "b", Type: frame.Boolean, Bools: bools, NA: boolNA},
			&frame.Column{Name: "na-f", Type: frame.Float64, Floats: make([]float64, len(floats)), NA: allNA},
			&frame.Column{Name: "na-s", Type: frame.String, Strings: make([]string, len(floats)), NA: allNA},
		),
		"zero-rows": frame.MustNew(
			&frame.Column{Name: "f", Type: frame.Float64},
			&frame.Column{Name: "s", Type: frame.String, NA: []bool{}},
			&frame.Column{Name: "b", Type: frame.Boolean},
		),
		"multi-chunk-strings": frame.MustNew(
			&frame.Column{Name: "s", Type: frame.String, Strings: long, NA: longNA},
			frame.FloatColumn("v", seq),
		),
	}
}

// columnsEqual reports how got differs from want, cell by cell and bit by
// bit ("" when it does not). An empty array and a nil one are equal, as
// are an absent NA mask and an empty one.
func columnsEqual(got, want []*frame.Column) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d columns, want %d", len(got), len(want))
	}
	for j, w := range want {
		g := got[j]
		if g.Name != w.Name || g.Type != w.Type || g.Len() != w.Len() {
			return fmt.Sprintf("column %d is %q %v x%d, want %q %v x%d", j, g.Name, g.Type, g.Len(), w.Name, w.Type, w.Len())
		}
		if (len(g.NA) > 0) != (len(w.NA) > 0) {
			return fmt.Sprintf("column %q: NA mask present %v, want %v", w.Name, len(g.NA) > 0, len(w.NA) > 0)
		}
		for i := 0; i < w.Len(); i++ {
			same := g.IsNA(i) == w.IsNA(i)
			switch w.Type {
			case frame.Float64:
				same = same && math.Float64bits(g.Floats[i]) == math.Float64bits(w.Floats[i])
			case frame.Int64:
				same = same && g.Ints[i] == w.Ints[i]
			case frame.String:
				same = same && g.Strings[i] == w.Strings[i]
			case frame.Boolean:
				same = same && g.Bools[i] == w.Bools[i]
			}
			if !same {
				return fmt.Sprintf("column %q cell %d: %q (NA %v), want %q (NA %v)", w.Name, i, g.AsString(i), g.IsNA(i), w.AsString(i), w.IsNA(i))
			}
		}
	}
	return ""
}

// checkStringViews fails unless every decoded string cell is a view into
// one bytes slab, laid end to end in cell order.
func checkStringViews(t *testing.T, cols []*frame.Column) {
	t.Helper()
	for _, c := range cols {
		if c.Type != frame.String {
			continue
		}
		var base uintptr
		off := 0
		for i, s := range c.Strings {
			if s != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				if base == 0 {
					base = p - uintptr(off)
				}
				if p != base+uintptr(off) {
					t.Fatalf("column %q cell %d is not a view at offset %d of its bytes slab", c.Name, i, off)
				}
			}
			off += len(s)
		}
	}
}

// TestStringColumnGoldenSlabs pins a String column's wire layout: uint32
// LE end offsets, the bytes end to end, then the NA mask as 0/1 bytes,
// each described by its size and CRC-32C.
func TestStringColumnGoldenSlabs(t *testing.T) {
	col := &frame.Column{Name: "s", Type: frame.String, Strings: []string{"ab", "", "ü"}, NA: []bool{false, true, false}}
	env, slabs, err := requestFrames([]Request{{Type: Put, Data: FramePayload(frame.MustNew(col))}})
	if err != nil {
		t.Fatal(err)
	}
	golden := [][]byte{
		{2, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0},
		[]byte("abü"),
		{0, 1, 0},
	}
	if len(slabs) != len(golden) {
		t.Fatalf("%d slabs, want %d", len(slabs), len(golden))
	}
	for i, s := range slabs {
		var got []byte
		_ = s.eachChunk(func(c []byte) error { got = append(got, c...); return nil })
		if !bytes.Equal(got, golden[i]) {
			t.Fatalf("slab %d: % x, want % x", i, got, golden[i])
		}
	}
	desc := func(b []byte) wireSlab { return wireSlab{Size: len(b), CRC: crc32.Checksum(b, castagnoli)} }
	na := desc(golden[2])
	want := wireColumn{Name: "s", Type: frame.String, Len: 3, Data: []wireSlab{desc(golden[0]), desc(golden[1])}, NA: &na}
	if got := env.Requests[0].Data.Frame[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("descriptor %+v, want %+v", got, want)
	}
}

// TestWireColumnFieldParity pins wireColumn to frame.Column: a column
// field added without a wire descriptor would silently not cross the wire.
// Every cell array maps to the Data slabs, the NA mask to NA; Len is
// wire-only.
func TestWireColumnFieldParity(t *testing.T) {
	carried := map[string]string{"Name": "Name", "Type": "Type",
		"Floats": "Data", "Ints": "Data", "Strings": "Data", "Bools": "Data", "NA": "NA"}
	wireOnly := map[string]bool{"Len": true}
	ct, wt := reflect.TypeOf(frame.Column{}), reflect.TypeOf(wireColumn{})
	used := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		repl, ok := carried[name]
		if !ok {
			t.Errorf("frame.Column.%s has no wire descriptor: carry it in wireColumn and list it here", name)
			continue
		}
		if _, ok := wt.FieldByName(repl); !ok {
			t.Errorf("wireColumn has no field %q for frame.Column.%s", repl, name)
		}
		used[repl] = true
	}
	for i := 0; i < wt.NumField(); i++ {
		if name := wt.Field(i).Name; !used[name] && !wireOnly[name] {
			t.Errorf("wireColumn.%s mirrors no frame.Column field", name)
		}
	}
}

// TestFrameSlabCorruption flips one byte of a string bytes slab, of an
// offsets slab and of an NA mask in transit: each fails the batch with the
// checksum desync.
func TestFrameSlabCorruption(t *testing.T) {
	cells := []string{"marker-one", "marker-two", "marker-three"}
	f := frame.MustNew(&frame.Column{Name: "s", Type: frame.String, Strings: cells, NA: []bool{false, false, true}})
	clean := encodeBatch(t, []Request{{Type: Put, ID: 1, Data: FramePayload(f)}}, 0, 5)
	needles := map[string][]byte{
		"string bytes": []byte("marker-two"),
		"offsets":      binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 10), 20),
		"NA mask":      {0, 0, 1},
	}
	for name, needle := range needles {
		at := bytes.LastIndex(clean, needle)
		if at < 0 {
			t.Fatalf("%s slab not found in the stream", name)
		}
		stream := bytes.Clone(clean)
		stream[at+1] ^= 0x01
		_, _, _, err := readBatch(requestStreamReader(stream))
		if !errors.Is(err, ErrDesync) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped byte in the %s slab = %v, want the checksum desync", name, err)
		}
	}
}

// forgedFrame renders a one-column frame PUT by hand. The descriptor
// carries each given slab's true size and CRC-32C, so that only what a
// case forges is wrong; na, when set, is the NA mask's slab.
func forgedFrame(t *testing.T, rows int, wc wireColumn, na []byte, slabs ...[]byte) []byte {
	desc := func(b []byte) wireSlab { return wireSlab{Size: len(b), CRC: crc32.Checksum(b, castagnoli)} }
	for _, s := range slabs {
		wc.Data = append(wc.Data, desc(s))
	}
	if na != nil {
		d := desc(na)
		wc.NA = &d
		slabs = append(slabs, na)
	}
	env := requestEnvelope(t, []Request{{Type: Put, ID: 1}}, 0, 1)
	env.Requests[0].Data = wirePayload{Kind: PayloadFrame, Rows: rows, Cols: 1, NVals: -1, NBytes: -1, Frame: []wireColumn{wc}}
	ts := newTestStream()
	if err := ts.writer(1).envelope(env); err != nil {
		t.Fatal(err)
	}
	stream := ts.bytes(t)
	for _, s := range slabs {
		if len(s) > 0 {
			stream = append(stream, chunkFrame(1, s)...)
		}
	}
	return stream
}

// TestForgedFrameDescriptors: a frame whose descriptor or slabs do not
// hold together — offsets that decrease or do not end at the bytes length,
// a boolean byte above 1, a column whose length is not the frame's — fails
// typed, with every checksum right.
func TestForgedFrameDescriptors(t *testing.T) {
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	str := wireColumn{Name: "s", Type: frame.String, Len: 3}
	cases := map[string][]byte{
		"offsets decrease":        forgedFrame(t, 3, str, nil, u32s(2, 1, 4), []byte("abcd")),
		"last offset short":       forgedFrame(t, 3, str, nil, u32s(1, 2, 3), []byte("abcd")),
		"last offset past bytes":  forgedFrame(t, 3, str, nil, u32s(1, 2, 5), []byte("abcd")),
		"bool byte above 1":       forgedFrame(t, 3, wireColumn{Name: "b", Type: frame.Boolean, Len: 3}, nil, []byte{0, 2, 1}),
		"NA byte above 1":         forgedFrame(t, 2, wireColumn{Name: "f", Type: frame.Float64, Len: 2}, []byte{1, 7}, make([]byte, 16)),
		"column length not Rows":  forgedFrame(t, 3, wireColumn{Name: "f", Type: frame.Float64, Len: 2}, nil, make([]byte, 16)),
		"cell slab size":          forgedFrame(t, 2, wireColumn{Name: "f", Type: frame.Float64, Len: 2}, nil, make([]byte, 8)),
		"NA mask size":            forgedFrame(t, 2, wireColumn{Name: "i", Type: frame.Int64, Len: 2}, []byte{0}, make([]byte, 16)),
		"missing bytes slab":      forgedFrame(t, 3, str, nil, u32s(1, 2, 3)),
		"string bytes, zero rows": forgedFrame(t, 0, wireColumn{Name: "s", Type: frame.String}, nil, nil, []byte("ab")),
		"unknown column type":     forgedFrame(t, 1, wireColumn{Name: "x", Type: frame.ValueType(9), Len: 1}, nil, make([]byte, 8)),
	}
	for name, stream := range cases {
		r := requestStreamReader(stream)
		if _, _, _, err := readBatch(r); !errors.Is(err, ErrDesync) {
			t.Errorf("%s: %v, want ErrDesync", name, err)
		}
	}
	// The well-formed twin of the string cases decodes.
	reqs, _, _, err := readBatch(requestStreamReader(forgedFrame(t, 3, str, nil, u32s(1, 1, 4), []byte("abcd"))))
	if err != nil {
		t.Fatal(err)
	}
	if got := reqs[0].Data.Frame[0].Strings; !reflect.DeepEqual(got, []string{"a", "", "bcd"}) {
		t.Fatalf("decoded %q", got)
	}
}

// TestOversizedStringColumnFailsTyped: a String column with more bytes
// than its offsets can address fails the PUT with ErrSlabTooLarge before
// anything is written, and a GET of one comes back as a failed response;
// the connection carries the next call either way.
func TestOversizedStringColumnFailsTyped(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := frame.MustNew(frame.StringColumn("s", []string{"0123456789", "abcdef"}))
	if _, err := c.CallOne(Request{Type: Put, ID: 1, Data: FramePayload(f)}); err != nil {
		t.Fatal(err)
	}

	defer func(limit int64) { maxStringBytes = limit }(maxStringBytes)
	maxStringBytes = 12
	sent := c.BytesSent()
	if _, err := c.CallOne(Request{Type: Put, ID: 2, Data: FramePayload(f)}); !errors.Is(err, ErrSlabTooLarge) {
		t.Fatalf("PUT of 16 string bytes over a 12-byte limit = %v, want ErrSlabTooLarge", err)
	}
	if c.BytesSent() != sent {
		t.Fatalf("the refused PUT wrote %d bytes", c.BytesSent()-sent)
	}
	if _, err := c.CallOne(Request{Type: Get, ID: 1}); err == nil || !strings.Contains(err.Error(), ErrSlabTooLarge.Error()) {
		t.Fatalf("GET of 16 string bytes over a 12-byte limit = %v, want a failed response naming the limit", err)
	}
	if _, err := c.CallOne(Request{Type: Put, ID: 3, Data: MatrixPayload(matrix.Fill(2, 2, 1))}); err != nil {
		t.Fatalf("the next call on the connection: %v", err)
	}
}
