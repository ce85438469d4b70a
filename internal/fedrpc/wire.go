package fedrpc

// The wire format (version 2) — the only one this package speaks.
//
// Gob-encoding whole batches, dense float64 slabs included, makes
// encode/decode the dominant phase of matrix-heavy RPCs (gob walks every
// value through reflection and varint-compresses it), so each batch is
//
//	[gob control envelope][raw slab][raw slab]...
//
// where the envelope (wireEnvelope / wireReply) carries everything small —
// types, IDs, dims, errors, instructions, the call tag, the batch epoch —
// and each payload's Values ([]float64) and Bytes ([]byte) contents follow
// as raw little-endian slabs written directly from (and read directly
// into) the backing arrays, each covered by a CRC-32C in its descriptor.
// gob remains the envelope codec because it is self-delimiting on a stream
// and never reads past a message boundary, so raw slabs can interleave
// with gob messages on one buffered connection.
//
// Handshake: the client opens every connection with the 5-byte prelude
// {0x00, 'X', 'D', 'R', version} and the server answers with its own. The
// versions must be equal; a server that sees another version still sends
// its prelude before closing, so both ends report ErrWireVersion naming
// the two versions instead of a bare EOF.
//
// The reply envelope carries the worker's instance epoch once per batch
// instead of once per response; the client stamps it back onto every
// decoded Response.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"unsafe"

	"exdra/internal/frame"
)

// wireVersion is the wire-format version this build speaks. Both ends of a
// connection must match it exactly.
const wireVersion byte = 2

// wirePrelude is the 5-byte stream prelude: a magic tag and the version
// byte.
var wirePrelude = [5]byte{0x00, 'X', 'D', 'R', wireVersion}

// ErrWireVersion marks a handshake with a peer that speaks another
// wire-format version; the wrapping error names both versions.
var ErrWireVersion = errors.New("fedrpc: wire version mismatch")

// maxSlabBytes bounds a single decoded slab (16 GiB) so a corrupt or
// hostile envelope cannot OOM the process with one forged length.
const maxSlabBytes = int64(1) << 34

// maxEagerSlabBytes bounds what a decoder allocates up front on the word of
// an unverified length descriptor (16 MiB — comfortably above the paper's
// per-RPC transfers). Longer slabs are real but rare, so they are read
// through a doubling-growth loop instead: a forged multi-GiB length then
// costs at most twice the bytes actually present on the stream, not a 16
// GiB make() before the first read.
const maxEagerSlabBytes = int64(16) << 20

// castagnoli is the CRC-32C table used for slab checksums. Castagnoli
// because amd64 and arm64 compute it in hardware — one cheap extra pass
// over slabs that are otherwise written and read zero-copy, so a flipped
// bit in transit surfaces as a typed integrity error instead of silently
// corrupting a model.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireEnvelope is the control message of one request batch: Request with
// the slab contents (Payload.Values/Bytes) hoisted out. Keep wireRequest's
// fields in sync with Request — TestWireRequestFieldParity enforces it.
type wireEnvelope struct {
	Requests []wireRequest
	// DeadlineNanos is the relative time budget the caller grants this
	// batch (nanoseconds from the moment the server decodes it). Zero means
	// no deadline.
	DeadlineNanos int64
	// Tag identifies this batch: a nonzero per-connection call ID the
	// server echoes on the matching reply, so replies may return out of
	// order. A zero tag is a protocol desync.
	Tag uint64
}

// wireRequest mirrors Request with Data replaced by its slab descriptor.
type wireRequest struct {
	Type       RequestType
	ID         int64
	Filename   string
	Privacy    int
	ColPrivacy []int
	Data       wirePayload
	Inst       *Instruction
	UDF        *UDFCall
}

// wireReply is the control message of one response batch. Epoch is the
// responding worker's instance epoch, stamped once per batch.
type wireReply struct {
	Responses []wireResponse
	ExecNanos int64
	Epoch     uint64
	// Tag echoes the request envelope's call tag (see wireEnvelope.Tag).
	Tag uint64
}

// wireResponse mirrors Response minus the per-response Epoch (hoisted into
// the wireReply envelope) and minus the slab contents.
type wireResponse struct {
	OK   bool
	Err  string
	Code int
	Data wirePayload
}

// wirePayload is a Payload with the two slab fields replaced by their
// lengths: NVals float64s and NBytes bytes follow the envelope as raw
// slabs, in batch order, Values before Bytes. Length -1 preserves a nil
// slice across the wire (0 is a present-but-empty slab). Frames keep
// traveling inside the envelope: they are typed columns (strings included)
// with no flat numeric backing array to alias.
type wirePayload struct {
	Kind   PayloadKind
	Rows   int
	Cols   int
	Scalar float64
	Frame  []*frame.Column
	NVals  int
	NBytes int
	// ValsCRC and BytesCRC are CRC-32C checksums of the two slabs' wire
	// bytes.
	ValsCRC  uint32
	BytesCRC uint32
}

// toWirePayload hoists the slab lengths out of p and stamps each slab's
// CRC-32C (over the little-endian wire representation — identical to the
// in-memory bytes on LE hosts, converted chunkwise on others).
func toWirePayload(p Payload) wirePayload {
	wp := wirePayload{Kind: p.Kind, Rows: p.Rows, Cols: p.Cols,
		Scalar: p.Scalar, Frame: p.Frame, NVals: -1, NBytes: -1}
	if p.Values != nil {
		wp.NVals = len(p.Values)
		wp.ValsCRC = floatSlabCRC(p.Values)
	}
	if p.Bytes != nil {
		wp.NBytes = len(p.Bytes)
		wp.BytesCRC = crc32.Checksum(p.Bytes, castagnoli)
	}
	return wp
}

// floatSlabCRC computes the CRC-32C of f's little-endian wire bytes.
func floatSlabCRC(f []float64) uint32 {
	if hostLittleEndian {
		return crc32.Checksum(floatBytes(f), castagnoli)
	}
	var crc uint32
	var buf [8]byte
	for _, v := range f {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// writePayloadSlabs writes p's slabs in wire order (Values, then Bytes).
func writePayloadSlabs(w io.Writer, p Payload) error {
	if len(p.Values) > 0 {
		if err := writeFloatSlab(w, p.Values); err != nil {
			return err
		}
	}
	if len(p.Bytes) > 0 {
		if _, err := w.Write(p.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// readPayload validates wp and reads its slabs into freshly allocated
// destination arrays — never pooled ones: ownership transfers to the
// decoded Payload (a PUT binds the slab into the symbol table as-is), so
// recycling here would alias live objects. Each slab's CRC-32C must match
// its descriptor.
func readPayload(r io.Reader, wp wirePayload) (Payload, error) {
	p := Payload{Kind: wp.Kind, Rows: wp.Rows, Cols: wp.Cols,
		Scalar: wp.Scalar, Frame: wp.Frame}
	if wp.NVals < -1 || int64(wp.NVals)*8 > maxSlabBytes {
		return p, fmt.Errorf("fedrpc: invalid values-slab length %d", wp.NVals)
	}
	if wp.NBytes < -1 || int64(wp.NBytes) > maxSlabBytes {
		return p, fmt.Errorf("fedrpc: invalid bytes-slab length %d", wp.NBytes)
	}
	if wp.Kind == PayloadMatrix && wp.NVals >= 0 && wp.NVals != wp.Rows*wp.Cols {
		return p, fmt.Errorf("fedrpc: matrix slab has %d values for %dx%d", wp.NVals, wp.Rows, wp.Cols)
	}
	if wp.NVals >= 0 {
		vals, err := readFloatSlabAlloc(r, wp.NVals)
		p.Values = vals
		if err != nil {
			return p, err
		}
		if floatSlabCRC(vals) != wp.ValsCRC {
			return p, fmt.Errorf("fedrpc: values-slab checksum mismatch (%d values)", wp.NVals)
		}
	}
	if wp.NBytes >= 0 {
		b, err := readBytesAlloc(r, wp.NBytes)
		p.Bytes = b
		if err != nil {
			return p, err
		}
		if crc32.Checksum(b, castagnoli) != wp.BytesCRC {
			return p, fmt.Errorf("fedrpc: bytes-slab checksum mismatch (%d bytes)", wp.NBytes)
		}
	}
	return p, nil
}

// readFloatSlabAlloc allocates and fills an n-float destination slab.
// Small slabs (the common case) are allocated exactly; larger ones grow by
// doubling as data actually arrives, so a forged length descriptor cannot
// force a huge allocation for a stream about to end.
func readFloatSlabAlloc(r io.Reader, n int) ([]float64, error) {
	if int64(n)*8 <= maxEagerSlabBytes {
		f := make([]float64, n)
		return f, readFloatSlab(r, f)
	}
	f := make([]float64, int(maxEagerSlabBytes/8))
	for filled := 0; ; {
		if err := readFloatSlab(r, f[filled:]); err != nil {
			return nil, err
		}
		filled = len(f)
		if filled == n {
			return f, nil
		}
		next := 2 * filled
		if next > n {
			next = n
		}
		grown := make([]float64, next)
		copy(grown, f)
		f = grown
	}
}

// readBytesAlloc is readFloatSlabAlloc for byte slabs.
func readBytesAlloc(r io.Reader, n int) ([]byte, error) {
	if int64(n) <= maxEagerSlabBytes {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b := make([]byte, int(maxEagerSlabBytes))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, b[filled:]); err != nil {
			return nil, err
		}
		filled = len(b)
		if filled == n {
			return b, nil
		}
		next := 2 * filled
		if next > n {
			next = n
		}
		grown := make([]byte, next)
		copy(grown, b)
		b = grown
	}
}

// writeBatch frames one request batch: envelope, then slabs.
// deadlineNanos is the relative call budget carried to the server (0 = no
// deadline); tag is the nonzero call ID the server echoes on the reply.
// The caller flushes the underlying writer.
func writeBatch(enc *gob.Encoder, w io.Writer, reqs []Request, deadlineNanos int64, tag uint64) error {
	env := wireEnvelope{Requests: make([]wireRequest, len(reqs)),
		DeadlineNanos: deadlineNanos, Tag: tag}
	for i, rq := range reqs {
		env.Requests[i] = wireRequest{
			Type: rq.Type, ID: rq.ID, Filename: rq.Filename,
			Privacy: rq.Privacy, ColPrivacy: rq.ColPrivacy,
			Data: toWirePayload(rq.Data), Inst: rq.Inst, UDF: rq.UDF,
		}
	}
	if err := enc.Encode(env); err != nil {
		return err
	}
	for i := range reqs {
		if err := writePayloadSlabs(w, reqs[i].Data); err != nil {
			return err
		}
	}
	return nil
}

// readBatch decodes one framed request batch plus its relative deadline
// (0 when the caller set none) and its call tag. An untagged batch could
// not be answered and is rejected as a desync.
func readBatch(dec *gob.Decoder, r io.Reader) ([]Request, int64, uint64, error) {
	var env wireEnvelope
	if err := dec.Decode(&env); err != nil {
		return nil, 0, 0, err
	}
	if env.Tag == 0 {
		return nil, 0, 0, errors.New("fedrpc: request batch without a call tag")
	}
	reqs := make([]Request, len(env.Requests))
	for i, wr := range env.Requests {
		data, err := readPayload(r, wr.Data)
		if err != nil {
			return nil, 0, 0, err
		}
		reqs[i] = Request{
			Type: wr.Type, ID: wr.ID, Filename: wr.Filename,
			Privacy: wr.Privacy, ColPrivacy: wr.ColPrivacy,
			Data: data, Inst: wr.Inst, UDF: wr.UDF,
		}
	}
	return reqs, env.DeadlineNanos, env.Tag, nil
}

// writeReply frames one response batch, echoing the request's pipelining
// tag. The epoch is hoisted from the responses (one worker process answered
// the whole batch, so the first nonzero stamp represents them all) into the
// envelope. The caller flushes.
func writeReply(enc *gob.Encoder, w io.Writer, resps []Response, execNanos int64, tag uint64) error {
	rep := wireReply{Responses: make([]wireResponse, len(resps)), ExecNanos: execNanos, Tag: tag}
	for i, rs := range resps {
		if rep.Epoch == 0 {
			rep.Epoch = rs.Epoch
		}
		rep.Responses[i] = wireResponse{OK: rs.OK, Err: rs.Err, Code: rs.Code, Data: toWirePayload(rs.Data)}
	}
	if err := enc.Encode(rep); err != nil {
		return err
	}
	for i := range resps {
		if err := writePayloadSlabs(w, resps[i].Data); err != nil {
			return err
		}
	}
	return nil
}

// readReply decodes one framed response batch — the responses, the
// server-side handler wall time and the echoed call tag — stamping the
// envelope epoch back onto every response.
func readReply(dec *gob.Decoder, r io.Reader) ([]Response, int64, uint64, error) {
	var rep wireReply
	if err := dec.Decode(&rep); err != nil {
		return nil, 0, 0, err
	}
	resps := make([]Response, len(rep.Responses))
	for i, wr := range rep.Responses {
		data, err := readPayload(r, wr.Data)
		if err != nil {
			return nil, 0, 0, err
		}
		resps[i] = Response{OK: wr.OK, Err: wr.Err, Code: wr.Code, Data: data, Epoch: rep.Epoch}
	}
	return resps, rep.ExecNanos, rep.Tag, nil
}

// --- raw float64 slab I/O -------------------------------------------------

// hostLittleEndian reports whether the native byte order matches the wire
// order; when it does, slabs move as single zero-copy writes and reads of
// the float64 backing array's byte view.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// slabChunk sizes the pooled conversion buffers of the portable path.
const slabChunk = 64 << 10

// slabPool recycles the conversion buffers used when a slab cannot be
// moved zero-copy (big-endian hosts). Matrix destination slabs are never
// pooled — only these transient staging chunks are.
var slabPool = sync.Pool{New: func() any {
	b := make([]byte, slabChunk)
	return &b
}}

// floatBytes reinterprets f as its raw byte view (no copy). Only valid
// when host and wire byte order agree.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// writeFloatSlab writes f as raw little-endian bytes: zero-copy straight
// from the backing array on little-endian hosts, chunk-converted through a
// pooled buffer otherwise.
func writeFloatSlab(w io.Writer, f []float64) error {
	if hostLittleEndian {
		_, err := w.Write(floatBytes(f))
		return err
	}
	return writeFloatSlabPortable(w, f)
}

// writeFloatSlabPortable is the explicit-conversion path (also exercised
// directly by tests so the pooled-buffer code is covered on every host).
func writeFloatSlabPortable(w io.Writer, f []float64) error {
	bp := slabPool.Get().(*[]byte)
	defer slabPool.Put(bp)
	buf := *bp
	for len(f) > 0 {
		n := len(f)
		if n > len(buf)/8 {
			n = len(buf) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f[i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		f = f[n:]
	}
	return nil
}

// readFloatSlab fills f from raw little-endian bytes: zero-copy into the
// destination slab on little-endian hosts.
func readFloatSlab(r io.Reader, f []float64) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, floatBytes(f))
		return err
	}
	return readFloatSlabPortable(r, f)
}

// readFloatSlabPortable is the explicit-conversion read path.
func readFloatSlabPortable(r io.Reader, f []float64) error {
	bp := slabPool.Get().(*[]byte)
	defer slabPool.Put(bp)
	buf := *bp
	for len(f) > 0 {
		n := len(f)
		if n > len(buf)/8 {
			n = len(buf) / 8
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		f = f[n:]
	}
	return nil
}

// --- handshake ------------------------------------------------------------

// readPrelude reads the peer's prelude and checks it against ours. Another
// version yields an error wrapping ErrWireVersion.
func readPrelude(r io.Reader) error {
	var got [5]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if !bytes.Equal(got[:4], wirePrelude[:4]) {
		return fmt.Errorf("fedrpc: bad handshake prelude % x", got)
	}
	if got[4] != wireVersion {
		return fmt.Errorf("%w: peer speaks v%d, this build v%d", ErrWireVersion, got[4], wireVersion)
	}
	return nil
}

// negotiate performs the client half of the handshake on a fresh
// connection: send the prelude, read the server's. The caller has armed
// the connection deadline that bounds it.
func negotiate(conn io.ReadWriter) error {
	if _, err := conn.Write(wirePrelude[:]); err != nil {
		return err
	}
	return readPrelude(conn)
}

// serverHandshake performs the server half: read the client's prelude and
// answer with ours, flushed eagerly so the client's handshake read returns
// before the first request is even sent. A client of another version still
// gets the answer, so that it can name both versions too, and then the
// error, on which the caller closes the connection.
func serverHandshake(br *bufio.Reader, bw *bufio.Writer) error {
	err := readPrelude(br)
	if err != nil && !errors.Is(err, ErrWireVersion) {
		return err
	}
	if _, werr := bw.Write(wirePrelude[:]); werr != nil {
		return werr
	}
	if werr := bw.Flush(); werr != nil {
		return werr
	}
	return err
}
