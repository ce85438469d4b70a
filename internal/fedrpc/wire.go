package fedrpc

// The wire format (version 3) — the only one this package speaks.
//
// Gob-encoding whole batches, dense float64 slabs included, makes
// encode/decode the dominant phase of matrix-heavy RPCs (gob walks every
// value through reflection and varint-compresses it), so each batch is a
// gob control envelope (wireEnvelope / wireReply) carrying everything
// small — types, IDs, dims, errors, instructions, the call tag, the batch
// epoch — while each payload's Values ([]float64) and Bytes ([]byte)
// contents travel as raw little-endian slabs, written directly from (and
// read directly into) the backing arrays, each covered by a CRC-32C in its
// descriptor.
//
// Every connection carries the batches of many pipelined calls, and a
// multi-megabyte slab must not hold the connection while a small call
// waits, so the stream is a sequence of frames, each opened by a kind
// byte:
//
//	'E' <one gob message>                     the envelope of a batch
//	'C' <tag u64 LE> <len u32 LE> <len bytes> the next chunk of that tag's slabs
//
// A batch is its envelope followed by its slabs in batch order (per
// payload, Values before Bytes), cut into chunks of at most slabChunk
// bytes that never span two slabs; a Values chunk is a whole number of
// floats. Frames of different tags interleave freely: a writer gives the
// connection up after every slabChunk bytes of chunks, so a waiting call's
// envelope and short slabs go out before the bulk call's next chunk. The
// reader keeps one open batch per tag whose slabs are still arriving,
// fills each slab straight into its destination array, and hands the
// batch on once its last slab is complete. A frame that does not fit —
// a chunk for an unknown or completed tag, a chunk past its slab, a second
// envelope for an open tag, an untagged envelope — is a torn interleave:
// ErrDesync, and the session is torn down. gob remains the envelope codec
// because it is self-delimiting on a stream and never reads past a
// message boundary.
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
const wireVersion byte = 3

// wirePrelude is the 5-byte stream prelude: a magic tag and the version
// byte.
var wirePrelude = [5]byte{0x00, 'X', 'D', 'R', wireVersion}

// ErrWireVersion marks a handshake with a peer that speaks another
// wire-format version; the wrapping error names both versions.
var ErrWireVersion = errors.New("fedrpc: wire version mismatch")

// ErrDesync marks a stream its reader can no longer follow: a torn
// interleave, a malformed frame or descriptor, or a slab whose CRC-32C does
// not match. Every call on the connection fails with it and the connection
// is closed; the next call redials.
var ErrDesync = errors.New("fedrpc: stream desync")

// Frame kinds: the byte that opens every frame after the prelude.
const (
	frameEnvelope byte = 'E'
	frameChunk    byte = 'C'
)

// chunkHeaderLen is the size of a chunk frame's header: kind, tag, length.
const chunkHeaderLen = 1 + 8 + 4

// maxSlabBytes bounds a single decoded slab (16 GiB) so a corrupt or
// hostile envelope cannot OOM the process with one forged length.
const maxSlabBytes = int64(1) << 34

// maxEagerSlabBytes bounds what a reader allocates on the word of
// unverified length descriptors, across all the slabs it has in progress
// (16 MiB — comfortably above the paper's per-RPC transfers). A slab's
// destination is allocated at its first chunk, at its full size while this
// budget lasts; the slab gives its share back when it completes. A slab
// that finds the budget spent, or is longer than it, grows by doubling as
// chunks actually arrive: forged multi-GiB lengths on every open tag then
// cost a stream at most this budget plus twice the bytes actually present
// on it, not a 16 GiB make() per tag before the first read.
const maxEagerSlabBytes = 16 << 20

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
// slabs in chunk frames, in batch order, Values before Bytes. Length -1
// preserves a nil slice across the wire (0 is a present-but-empty slab).
// Frames keep traveling inside the envelope: they are typed columns
// (strings included) with no flat numeric backing array to alias.
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
// in-memory bytes on LE hosts, converted on others).
func toWirePayload(p Payload) wirePayload {
	wp := wirePayload{Kind: p.Kind, Rows: p.Rows, Cols: p.Cols,
		Scalar: p.Scalar, Frame: p.Frame, NVals: -1, NBytes: -1}
	if p.Values != nil {
		wp.NVals = len(p.Values)
		wp.ValsCRC = updateFloatCRC(0, p.Values)
	}
	if p.Bytes != nil {
		wp.NBytes = len(p.Bytes)
		wp.BytesCRC = crc32.Checksum(p.Bytes, castagnoli)
	}
	return wp
}

// updateFloatCRC extends crc over f's little-endian wire bytes.
func updateFloatCRC(crc uint32, f []float64) uint32 {
	if hostLittleEndian {
		return crc32.Update(crc, castagnoli, floatBytes(f))
	}
	var buf [8]byte
	for _, v := range f {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// checkPayload rejects a slab descriptor a hostile or corrupted envelope
// could carry before anything is allocated for it.
func checkPayload(wp wirePayload) error {
	if wp.NVals < -1 || int64(wp.NVals)*8 > maxSlabBytes {
		return fmt.Errorf("%w: invalid values-slab length %d", ErrDesync, wp.NVals)
	}
	if wp.NBytes < -1 || int64(wp.NBytes) > maxSlabBytes {
		return fmt.Errorf("%w: invalid bytes-slab length %d", ErrDesync, wp.NBytes)
	}
	if wp.Kind == PayloadMatrix && wp.NVals >= 0 && wp.NVals != wp.Rows*wp.Cols {
		return fmt.Errorf("%w: matrix slab has %d values for %dx%d", ErrDesync, wp.NVals, wp.Rows, wp.Cols)
	}
	return nil
}

// requestEnvelope builds the control message of a request batch.
func requestEnvelope(reqs []Request, deadlineNanos int64, tag uint64) *wireEnvelope {
	env := &wireEnvelope{Requests: make([]wireRequest, len(reqs)),
		DeadlineNanos: deadlineNanos, Tag: tag}
	for i, rq := range reqs {
		env.Requests[i] = wireRequest{
			Type: rq.Type, ID: rq.ID, Filename: rq.Filename,
			Privacy: rq.Privacy, ColPrivacy: rq.ColPrivacy,
			Data: toWirePayload(rq.Data), Inst: rq.Inst, UDF: rq.UDF,
		}
	}
	return env
}

// replyEnvelope builds the control message of a response batch, echoing
// the request's call tag. The epoch is hoisted from the responses (one
// worker process answered the whole batch, so the first nonzero stamp
// represents them all) into the envelope.
func replyEnvelope(resps []Response, execNanos int64, tag uint64) *wireReply {
	rep := &wireReply{Responses: make([]wireResponse, len(resps)), ExecNanos: execNanos, Tag: tag}
	for i, rs := range resps {
		if rep.Epoch == 0 {
			rep.Epoch = rs.Epoch
		}
		rep.Responses[i] = wireResponse{OK: rs.OK, Err: rs.Err, Code: rs.Code, Data: toWirePayload(rs.Data)}
	}
	return rep
}

func (e *wireEnvelope) callTag() uint64 { return e.Tag }

func (e *wireEnvelope) payloads() []wirePayload {
	wps := make([]wirePayload, len(e.Requests))
	for i := range e.Requests {
		wps[i] = e.Requests[i].Data
	}
	return wps
}

// requests rebuilds the batch from its envelope and reassembled payloads.
func (e *wireEnvelope) requests(data []Payload) []Request {
	reqs := make([]Request, len(e.Requests))
	for i, wr := range e.Requests {
		reqs[i] = Request{
			Type: wr.Type, ID: wr.ID, Filename: wr.Filename,
			Privacy: wr.Privacy, ColPrivacy: wr.ColPrivacy,
			Data: data[i], Inst: wr.Inst, UDF: wr.UDF,
		}
	}
	return reqs
}

func (r *wireReply) callTag() uint64 { return r.Tag }

func (r *wireReply) payloads() []wirePayload {
	wps := make([]wirePayload, len(r.Responses))
	for i := range r.Responses {
		wps[i] = r.Responses[i].Data
	}
	return wps
}

// responses rebuilds the response batch, stamping the envelope epoch back
// onto every response.
func (r *wireReply) responses(data []Payload) []Response {
	resps := make([]Response, len(r.Responses))
	for i, wr := range r.Responses {
		resps[i] = Response{OK: wr.OK, Err: wr.Err, Code: wr.Code, Data: data[i], Epoch: r.Epoch}
	}
	return resps
}

// --- writing --------------------------------------------------------------

// frameWriter writes one call's frames onto the connection's buffered
// stream, which every call on the connection shares under its write token.
// The caller holds the token from the envelope to the final flush, except
// inside yield.
type frameWriter struct {
	bw  *bufio.Writer
	w   io.Writer // the writer under bw: full chunks go here straight from the slab
	enc *gob.Encoder
	tag uint64
	// yield is called between chunks once the token has carried slabChunk
	// bytes of this call's chunks, with the stream flushed: it gives the
	// token up and takes it back, so a waiting call writes its frames in
	// between.
	yield func() error
	held  int // chunk bytes written since the token was last taken
}

// writeBatch writes one request batch: envelope, then slabs.
// deadlineNanos is the relative call budget carried to the server (0 = no
// deadline). The caller flushes.
func writeBatch(fw *frameWriter, reqs []Request, deadlineNanos int64) error {
	if err := fw.envelope(requestEnvelope(reqs, deadlineNanos, fw.tag)); err != nil {
		return err
	}
	for i := range reqs {
		if err := fw.slabs(reqs[i].Data); err != nil {
			return err
		}
	}
	return nil
}

// writeReply writes one response batch. The caller flushes.
func writeReply(fw *frameWriter, resps []Response, execNanos int64) error {
	if err := fw.envelope(replyEnvelope(resps, execNanos, fw.tag)); err != nil {
		return err
	}
	for i := range resps {
		if err := fw.slabs(resps[i].Data); err != nil {
			return err
		}
	}
	return nil
}

// envelope writes an envelope frame.
func (fw *frameWriter) envelope(env any) error {
	if err := fw.bw.WriteByte(frameEnvelope); err != nil {
		return err
	}
	return fw.enc.Encode(env)
}

// slabs writes p's slabs in wire order (Values, then Bytes). Empty slabs
// have no chunks: their descriptors say all there is.
func (fw *frameWriter) slabs(p Payload) error {
	if len(p.Values) > 0 {
		if hostLittleEndian {
			if err := fw.byteSlab(floatBytes(p.Values)); err != nil {
				return err
			}
		} else if err := fw.floatSlabPortable(p.Values); err != nil {
			return err
		}
	}
	if len(p.Bytes) > 0 {
		return fw.byteSlab(p.Bytes)
	}
	return nil
}

// byteSlab writes b as chunks taken straight from it (on little-endian
// hosts this is also the zero-copy path for float slabs).
func (fw *frameWriter) byteSlab(b []byte) error {
	for len(b) > 0 {
		n := min(len(b), slabChunk)
		if err := fw.chunk(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// floatSlabPortable is the explicit-conversion path for hosts whose byte
// order is not the wire's: each chunk is converted into a pooled staging
// buffer (also exercised directly by tests so it is covered on every host).
func (fw *frameWriter) floatSlabPortable(f []float64) error {
	bp := slabPool.Get().(*[]byte)
	defer slabPool.Put(bp)
	buf := *bp
	for len(f) > 0 {
		n := min(len(f), len(buf)/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f[i]))
		}
		if err := fw.chunk(buf[:n*8]); err != nil {
			return err
		}
		f = f[n:]
	}
	return nil
}

// chunk writes one chunk frame, first yielding the token if this hold has
// already carried its quantum. The header goes through the buffer; a chunk
// that would not fit behind it flushes the buffer and is written straight
// from the caller's slice, so a full chunk is never copied.
func (fw *frameWriter) chunk(p []byte) error {
	if fw.held >= slabChunk {
		if err := fw.bw.Flush(); err != nil {
			return err
		}
		if err := fw.yield(); err != nil {
			return err
		}
		fw.held = 0
	}
	fw.held += len(p)
	var hdr [chunkHeaderLen]byte
	hdr[0] = frameChunk
	binary.LittleEndian.PutUint64(hdr[1:], fw.tag)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(p)))
	if _, err := fw.bw.Write(hdr[:]); err != nil {
		return err
	}
	if len(p) < fw.bw.Available() {
		_, err := fw.bw.Write(p)
		return err
	}
	if err := fw.bw.Flush(); err != nil {
		return err
	}
	_, err := fw.w.Write(p)
	return err
}

// --- reading --------------------------------------------------------------

// envelopePtr is what a frameReader needs of an envelope type.
type envelopePtr[E any] interface {
	*E
	callTag() uint64
	payloads() []wirePayload
}

// frameReader reads one direction of a connection: the envelopes and
// chunks of any number of calls, interleaved. It keeps an openBatch per tag
// whose slabs are still arriving and reassembles every slab straight into
// its destination array — freshly allocated, never pooled: ownership
// transfers to the decoded Payload (a PUT binds the slab into the symbol
// table as-is), so recycling would alias live objects.
type frameReader[E any, P envelopePtr[E]] struct {
	br      *bufio.Reader
	dec     *gob.Decoder
	maxOpen int // open tags allowed at once: the in-flight window
	open    map[uint64]*openBatch[E]
	eager   int // what is left of maxEagerSlabBytes for the slabs in progress
}

// frameReadBuf sizes a frameReader's buffer. It is small next to slabChunk
// on purpose: reading a chunk's header fills the buffer with the start of
// its payload, which then has to be copied out, while the rest of a full
// chunk is read straight into the destination slab.
const frameReadBuf = 4 << 10

// requestReader reads a server's incoming stream, replyReader a client's.
type (
	requestReader = frameReader[wireEnvelope, *wireEnvelope]
	replyReader   = frameReader[wireReply, *wireReply]
)

// openBatch is a batch whose envelope has arrived: its payloads, and the
// slabs still to fill, in wire order.
type openBatch[E any] struct {
	env   E
	data  []Payload
	slabs []slab
}

// slab is one slab under reassembly into its payload's Values or Bytes.
type slab struct {
	dst   *Payload
	float bool   // a Values slab, whose chunks carry whole floats
	size  int    // wire bytes
	want  uint32 // CRC-32C from the descriptor
	got   int    // bytes received so far
	crc   uint32 // CRC-32C of the bytes received so far
	eager int    // the reader's eager budget this slab holds until it completes
}

func newFrameReader[E any, P envelopePtr[E]](br *bufio.Reader, maxOpen int) *frameReader[E, P] {
	return &frameReader[E, P]{br: br, dec: gob.NewDecoder(br), maxOpen: maxOpen,
		open: map[uint64]*openBatch[E]{}, eager: maxEagerSlabBytes}
}

// readFrame reads one frame and returns its tag, plus the batch when the
// frame completed it. Tag zero is no call's; the callers reject it — the
// server as an untagged batch, the client as an unknown call tag.
func (r *frameReader[E, P]) readFrame() (uint64, *openBatch[E], error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	switch kind {
	case frameEnvelope:
		return r.readEnvelope()
	case frameChunk:
		return r.readChunk()
	}
	return 0, nil, fmt.Errorf("%w: unknown frame kind %#x", ErrDesync, kind)
}

// readEnvelope decodes an envelope and opens its batch; a batch without
// slab bytes is complete at once.
func (r *frameReader[E, P]) readEnvelope() (uint64, *openBatch[E], error) {
	b := &openBatch[E]{}
	env := P(&b.env)
	if err := r.dec.Decode(env); err != nil {
		return 0, nil, err
	}
	tag := env.callTag()
	if r.open[tag] != nil {
		return 0, nil, fmt.Errorf("%w: second envelope for open call tag %d", ErrDesync, tag)
	}
	wps := env.payloads()
	b.data = make([]Payload, len(wps))
	for i, wp := range wps {
		if err := checkPayload(wp); err != nil {
			return 0, nil, err
		}
		p := &b.data[i]
		*p = Payload{Kind: wp.Kind, Rows: wp.Rows, Cols: wp.Cols, Scalar: wp.Scalar, Frame: wp.Frame}
		switch {
		case wp.NVals == 0:
			p.Values = []float64{}
		case wp.NVals > 0:
			b.slabs = append(b.slabs, slab{dst: p, float: true, size: wp.NVals * 8, want: wp.ValsCRC})
		}
		switch {
		case wp.NBytes == 0:
			p.Bytes = []byte{}
		case wp.NBytes > 0:
			b.slabs = append(b.slabs, slab{dst: p, size: wp.NBytes, want: wp.BytesCRC})
		}
	}
	if len(b.slabs) == 0 {
		return tag, b, nil
	}
	if len(r.open) >= r.maxOpen {
		return 0, nil, fmt.Errorf("%w: call tag %d opens more than %d batches at once", ErrDesync, tag, r.maxOpen)
	}
	r.open[tag] = b
	return tag, nil, nil
}

// readChunk reads a chunk into its tag's current slab.
func (r *frameReader[E, P]) readChunk() (uint64, *openBatch[E], error) {
	var hdr [chunkHeaderLen - 1]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	tag := binary.LittleEndian.Uint64(hdr[:8])
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	b := r.open[tag]
	if b == nil {
		return 0, nil, fmt.Errorf("%w: chunk for unknown or completed call tag %d", ErrDesync, tag)
	}
	s := &b.slabs[0]
	if n <= 0 || n > slabChunk || n > s.size-s.got || (s.float && n%8 != 0) {
		return 0, nil, fmt.Errorf("%w: chunk of %d bytes past its slab (call tag %d, %d of %d bytes received)",
			ErrDesync, n, tag, s.got, s.size)
	}
	if s.got == 0 {
		s.eager = min(s.size, r.eager)
		r.eager -= s.eager
	}
	if err := s.fill(r.br, n); err != nil {
		return 0, nil, err
	}
	if s.got < s.size {
		return tag, nil, nil
	}
	r.eager += s.eager
	if s.crc != s.want {
		kind := "bytes"
		if s.float {
			kind = "values"
		}
		return 0, nil, fmt.Errorf("%w: %s-slab checksum mismatch (%d bytes, call tag %d)", ErrDesync, kind, s.size, tag)
	}
	if b.slabs = b.slabs[1:]; len(b.slabs) > 0 {
		return tag, nil, nil
	}
	delete(r.open, tag)
	return tag, b, nil
}

// fill reads the next n bytes of the slab into its destination, allocating
// it at the first chunk (the eager share, or the chunk if that is larger)
// and growing it by doubling after.
func (s *slab) fill(r io.Reader, n int) error {
	lo, hi := s.got, s.got+n
	first := max(s.eager, hi)
	if s.float {
		vals := growSlab(s.dst.Values, hi/8, first/8, s.size/8)
		s.dst.Values = vals
		if err := readFloatSlab(r, vals[lo/8:hi/8]); err != nil {
			return err
		}
		s.crc = updateFloatCRC(s.crc, vals[lo/8:hi/8])
	} else {
		b := growSlab(s.dst.Bytes, hi, first, s.size)
		s.dst.Bytes = b
		if _, err := io.ReadFull(r, b[lo:hi]); err != nil {
			return err
		}
		s.crc = crc32.Update(s.crc, castagnoli, b[lo:hi])
	}
	s.got = hi
	return nil
}

// growSlab returns buf with room for need elements of a size-element slab:
// the first call allocates first elements (at least need), later ones
// double, and none goes past size.
func growSlab[T any](buf []T, need, first, size int) []T {
	if need <= len(buf) {
		return buf
	}
	n := len(buf)
	if n == 0 {
		n = first
	}
	for n < need {
		n *= 2
	}
	grown := make([]T, min(n, size))
	copy(grown, buf)
	return grown
}

// readBatch reads frames until a request batch is complete and returns it
// with its relative deadline (0 when the caller set none) and call tag. An
// untagged batch could not be answered and is rejected as a desync.
func readBatch(r *requestReader) ([]Request, int64, uint64, error) {
	for {
		tag, b, err := r.readFrame()
		if err != nil {
			return nil, 0, 0, err
		}
		if tag == 0 {
			return nil, 0, 0, fmt.Errorf("%w: request batch without a call tag", ErrDesync)
		}
		if b != nil {
			return b.env.requests(b.data), b.env.DeadlineNanos, tag, nil
		}
	}
}

// --- raw float64 slab I/O -------------------------------------------------

// hostLittleEndian reports whether the native byte order matches the wire
// order; when it does, slabs move as zero-copy writes and reads of the
// float64 backing array's byte view.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// slabChunk is the largest chunk frame, the quantum after which a writer
// gives the connection up, and the size of the portable path's pooled
// conversion buffers.
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
		n := min(len(f), len(buf)/8)
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
