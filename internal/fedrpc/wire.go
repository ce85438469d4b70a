package fedrpc

// The wire format (version 4) — the only one this package speaks.
//
// Gob-encoding whole batches, dense float64 slabs and frame columns
// included, makes encode/decode the dominant phase of data-heavy RPCs (gob
// walks every value through reflection and varint-compresses it), so each
// batch is a gob control envelope (wireEnvelope / wireReply) carrying
// everything small — types, IDs, dims, errors, instructions, the call tag,
// the batch epoch, and one descriptor per slab — while the data travels as
// raw little-endian slabs, written directly from (and read directly into)
// the backing arrays, each covered by a CRC-32C in its descriptor. A
// payload's slabs, in wire order:
//
//	Values          8-byte LE floats (a matrix's row-major cells)
//	Bytes           raw bytes (a UDF's result)
//	per frame column, in column order:
//	  Float64/Int64   8-byte LE words, one per cell
//	  Boolean         one byte per cell, 0 or 1
//	  String          uint32 LE end offsets, one per cell, then the cells'
//	                  bytes end to end (Arrow's layout); a cell is the
//	                  bytes from the previous end offset (0 for the first)
//	                  to its own
//	  NA mask         one byte per cell, 0 or 1, when the column has one
//
// Every connection carries the batches of many pipelined calls, and a
// multi-megabyte slab must not hold the connection while a small call
// waits, so the stream is a sequence of frames, each opened by a kind
// byte:
//
//	'E' <one gob message>                     the envelope of a batch
//	'C' <tag u64 LE> <len u32 LE> <len bytes> the next chunk of that tag's slabs
//
// A batch is its envelope followed by its slabs in batch order, cut into
// chunks of at most slabChunk bytes that never span two slabs and always
// carry whole elements (words, offsets). Frames of different tags
// interleave freely: a writer gives the connection up after every
// slabChunk bytes of chunks, so a waiting call's envelope and short slabs
// go out before the bulk call's next chunk. The reader keeps one open
// batch per tag whose slabs are still arriving, fills each slab straight
// into a freshly allocated destination array of its type, and hands the
// batch on once its last slab is complete; a decoded string cell is a view
// into its column's bytes slab. A frame that does not fit — a chunk for an
// unknown or completed tag, a chunk past its slab, a second envelope for an
// open tag, an untagged envelope — is a torn interleave, and a slab that
// does not hold what its descriptor promises — a checksum mismatch, a
// boolean byte above 1, string offsets that decrease or do not end at the
// bytes slab's length — is corrupt: either is ErrDesync, and the session is
// torn down. gob remains the envelope codec because it is self-delimiting
// on a stream and never reads past a message boundary.
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
const wireVersion byte = 4

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

// ErrSlabTooLarge marks a payload the writer refuses before it writes
// anything: a slab longer than a reader accepts (maxSlabBytes), or a
// String column with more bytes than its uint32 end offsets can address.
var ErrSlabTooLarge = errors.New("fedrpc: slab too large for the wire")

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

// maxStringBytes bounds a String column's bytes slab: its end offsets are
// uint32. A variable only so that tests can reach it with small columns.
var maxStringBytes int64 = math.MaxUint32

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
// the slab contents (Payload.Values, Bytes and frame cells) hoisted out. Keep wireRequest's
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

// wirePayload is a Payload with its slab contents replaced by their
// descriptors: NVals float64s and NBytes bytes follow the envelope as raw
// slabs in chunk frames, in batch order, Values before Bytes, then each
// frame column's slabs. Length -1 preserves a nil slice across the wire (0
// is a present-but-empty slab).
type wirePayload struct {
	Kind   PayloadKind
	Rows   int
	Cols   int
	Scalar float64
	Frame  []wireColumn
	NVals  int
	NBytes int
	// ValsCRC and BytesCRC are CRC-32C checksums of the two slabs' wire
	// bytes.
	ValsCRC  uint32
	BytesCRC uint32
}

// wireColumn is a frame.Column with its cell arrays replaced by the
// descriptors of the slabs that carry them. Keep its fields in sync with
// frame.Column — TestWireColumnFieldParity enforces it.
type wireColumn struct {
	Name string
	Type frame.ValueType
	// Len is the column's cell count; it must be the payload's Rows.
	Len int
	// Data describes the cell slabs: one for a Float64, Int64 or Boolean
	// column; the end offsets, then the bytes, for a String column.
	Data []wireSlab
	// NA describes the NA mask's slab; nil when the column has no mask.
	NA *wireSlab
}

// wireSlab describes one frame-column slab: its length in wire bytes and
// the CRC-32C of those bytes.
type wireSlab struct {
	Size int
	CRC  uint32
}

// --- writing --------------------------------------------------------------

// outSlab is one slab to write: the native-order byte view of its array,
// and the width in bytes of the array's elements.
type outSlab struct {
	b     []byte
	width int
}

// slabOf views s as a slab (no copy).
func slabOf[T any](s []T) outSlab {
	var zero T
	return outSlab{b: asBytes(s), width: int(unsafe.Sizeof(zero))}
}

// asBytes reinterprets s as its raw byte view (no copy).
func asBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// eachChunk calls fn with the slab's wire bytes, at most slabChunk at a
// time and in whole elements: cut straight from the array on
// little-endian hosts and for byte slabs, converted through a pooled
// staging buffer otherwise.
func (s outSlab) eachChunk(fn func([]byte) error) error {
	if !hostLittleEndian && s.width > 1 {
		return s.eachChunkPortable(fn)
	}
	for b := s.b; len(b) > 0; {
		n := min(len(b), slabChunk)
		if err := fn(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// eachChunkPortable is eachChunk's explicit-conversion path for hosts
// whose byte order is not the wire's (also exercised directly by tests so
// it is covered on every host).
func (s outSlab) eachChunkPortable(fn func([]byte) error) error {
	bp := slabPool.Get().(*[]byte)
	defer slabPool.Put(bp)
	buf := *bp
	for b := s.b; len(b) > 0; {
		n := min(len(b), len(buf))
		leOrder(buf[:n], b[:n], s.width)
		if err := fn(buf[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// crc returns the CRC-32C of the slab's wire bytes.
func (s outSlab) crc() uint32 {
	var crc uint32
	_ = s.eachChunk(func(b []byte) error {
		crc = crc32.Update(crc, castagnoli, b)
		return nil
	})
	return crc
}

// leOrder copies src to dst converting each width-byte word between
// native and little-endian order: the same swap in either direction, and a
// plain copy on little-endian hosts. dst may be src.
func leOrder(dst, src []byte, width int) {
	switch width {
	case 8:
		for i := 0; i+8 <= len(src); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(src[i:]))
		}
	case 4:
		for i := 0; i+4 <= len(src); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], binary.NativeEndian.Uint32(src[i:]))
		}
	default:
		copy(dst, src)
	}
}

// slabList collects a batch's slabs in wire order while its payloads are
// described.
type slabList []outSlab

// add appends s and returns its descriptor.
func (l *slabList) add(s outSlab) (wireSlab, error) {
	if int64(len(s.b)) > maxSlabBytes {
		return wireSlab{}, fmt.Errorf("%w: %d bytes", ErrSlabTooLarge, len(s.b))
	}
	*l = append(*l, s)
	return wireSlab{Size: len(s.b), CRC: s.crc()}, nil
}

// payload describes p, appending its slabs. The CRC-32C of each slab is
// taken over its little-endian wire bytes — identical to the in-memory
// bytes on LE hosts, converted on others.
func (l *slabList) payload(p Payload) (wirePayload, error) {
	wp := wirePayload{Kind: p.Kind, Rows: p.Rows, Cols: p.Cols, Scalar: p.Scalar, NVals: -1, NBytes: -1}
	if p.Values != nil {
		d, err := l.add(slabOf(p.Values))
		if err != nil {
			return wirePayload{}, err
		}
		wp.NVals, wp.ValsCRC = len(p.Values), d.CRC
	}
	if p.Bytes != nil {
		d, err := l.add(slabOf(p.Bytes))
		if err != nil {
			return wirePayload{}, err
		}
		wp.NBytes, wp.BytesCRC = len(p.Bytes), d.CRC
	}
	if len(p.Frame) > 0 {
		wp.Frame = make([]wireColumn, len(p.Frame))
		for i, c := range p.Frame {
			wc, err := l.column(c)
			if err != nil {
				return wirePayload{}, fmt.Errorf("column %q: %w", c.Name, err)
			}
			wp.Frame[i] = wc
		}
	}
	return wp, nil
}

// column describes c, appending its slabs.
func (l *slabList) column(c *frame.Column) (wireColumn, error) {
	wc := wireColumn{Name: c.Name, Type: c.Type, Len: c.Len()}
	var data []outSlab
	switch c.Type {
	case frame.Float64:
		data = []outSlab{slabOf(c.Floats)}
	case frame.Int64:
		data = []outSlab{slabOf(c.Ints)}
	case frame.Boolean:
		data = []outSlab{slabOf(c.Bools)}
	case frame.String:
		offs, b, err := stringSlabs(c.Strings)
		if err != nil {
			return wireColumn{}, err
		}
		data = []outSlab{slabOf(offs), slabOf(b)}
	default:
		return wireColumn{}, fmt.Errorf("unknown column type %v", c.Type)
	}
	wc.Data = make([]wireSlab, len(data))
	for i, s := range data {
		d, err := l.add(s)
		if err != nil {
			return wireColumn{}, err
		}
		wc.Data[i] = d
	}
	if c.NA != nil {
		if len(c.NA) != wc.Len {
			return wireColumn{}, fmt.Errorf("NA mask of %d cells for %d", len(c.NA), wc.Len)
		}
		d, err := l.add(slabOf(c.NA))
		if err != nil {
			return wireColumn{}, err
		}
		wc.NA = &d
	}
	return wc, nil
}

// stringSlabs lays string cells out as Arrow does: the uint32 end offset
// of every cell, and the cells' bytes end to end.
func stringSlabs(cells []string) ([]uint32, []byte, error) {
	n := 0
	for _, s := range cells {
		n += len(s)
	}
	if int64(n) > maxStringBytes {
		return nil, nil, fmt.Errorf("%w: %d string bytes, more than %d offsets can address", ErrSlabTooLarge, n, maxStringBytes)
	}
	offs := make([]uint32, len(cells))
	b := make([]byte, 0, n)
	for i, s := range cells {
		b = append(b, s...)
		offs[i] = uint32(len(b))
	}
	return offs, b, nil
}

// requestFrames builds a request batch in wire form: its envelope, whose
// Tag and DeadlineNanos the caller sets when it writes it, and its slabs
// in wire order. A payload the wire cannot carry fails it before anything
// is written.
func requestFrames(reqs []Request) (*wireEnvelope, []outSlab, error) {
	env := &wireEnvelope{Requests: make([]wireRequest, len(reqs))}
	var l slabList
	for i, rq := range reqs {
		data, err := l.payload(rq.Data)
		if err != nil {
			return nil, nil, fmt.Errorf("fedrpc: %s request %d: %w", rq.Type, i, err)
		}
		env.Requests[i] = wireRequest{
			Type: rq.Type, ID: rq.ID, Filename: rq.Filename,
			Privacy: rq.Privacy, ColPrivacy: rq.ColPrivacy,
			Data: data, Inst: rq.Inst, UDF: rq.UDF,
		}
	}
	return env, l, nil
}

// replyFrames builds a response batch in wire form: its envelope, whose
// Tag and ExecNanos the caller sets, and its slabs in wire order. The
// epoch is hoisted from the responses (one worker process answered the
// whole batch, so the first nonzero stamp represents them all) into the
// envelope. A response whose payload the wire cannot carry goes out as a
// failed response naming the reason, so the rest of the batch still
// arrives.
func replyFrames(resps []Response) (*wireReply, []outSlab) {
	rep := &wireReply{Responses: make([]wireResponse, len(resps))}
	var l slabList
	for i, rs := range resps {
		if rep.Epoch == 0 {
			rep.Epoch = rs.Epoch
		}
		mark := len(l)
		data, err := l.payload(rs.Data)
		if err != nil {
			l = l[:mark]
			rs = Errorf("reply payload: %v", err)
			data = wirePayload{NVals: -1, NBytes: -1}
		}
		rep.Responses[i] = wireResponse{OK: rs.OK, Err: rs.Err, Code: rs.Code, Data: data}
	}
	return rep, l
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

// write writes one batch: its envelope, then its slabs in wire order.
// Empty slabs have no chunks: their descriptors say all there is. The
// caller flushes.
func (fw *frameWriter) write(env any, slabs []outSlab) error {
	if err := fw.envelope(env); err != nil {
		return err
	}
	for _, s := range slabs {
		if err := s.eachChunk(fw.chunk); err != nil {
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
// table as-is, and string cells are views into their bytes slab), so
// recycling would alias live objects.
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

// openBatch is a batch whose envelope has arrived: its payloads, the slabs
// still to fill, in wire order, and the String columns whose cells are cut
// from their slabs once the batch is complete.
type openBatch[E any] struct {
	env     E
	data    []Payload
	slabs   []slab
	strings []*stringSlabsIn
}

// slab is one slab under reassembly into its destination array.
type slab struct {
	what string // names the slab in errors
	// grow reallocates the destination at elems elements, keeping what it
	// holds, binds it where the decoded payload keeps it, and returns its
	// byte view.
	grow  func(elems int) []byte
	width int    // element size: chunks carry whole elements
	bools bool   // Boolean cells or an NA mask: every byte must be 0 or 1
	buf   []byte // the destination's byte view, as allocated so far
	size  int    // wire bytes
	want  uint32 // CRC-32C from the descriptor
	got   int    // bytes received so far
	crc   uint32 // CRC-32C of the bytes received so far
	eager int    // the reader's eager budget this slab holds until it completes
}

// newSlab describes a slab of d.Size wire bytes that decodes into *dst.
func newSlab[T any](dst *[]T, what string, d wireSlab) slab {
	var zero T
	_, bools := any(zero).(bool)
	return slab{what: what, width: int(unsafe.Sizeof(zero)), bools: bools, size: d.Size, want: d.CRC,
		grow: func(elems int) []byte {
			grown := make([]T, elems)
			copy(grown, *dst)
			*dst = grown
			return asBytes(grown)
		}}
}

// stringSlabsIn is a received String column's two slabs.
type stringSlabsIn struct {
	col   *frame.Column
	offs  []uint32
	bytes []byte
}

// cells cuts the column's cells from its bytes slab: each is a view into
// it, not a copy, so the column costs two allocations, not one per cell.
func (s *stringSlabsIn) cells() error {
	if len(s.offs) == 0 {
		return nil
	}
	cells := make([]string, len(s.offs))
	lo := uint32(0)
	for i, hi := range s.offs {
		if hi < lo || int64(hi) > int64(len(s.bytes)) {
			return fmt.Errorf("%w: column %q: string offset %d of cell %d after %d, in %d bytes",
				ErrDesync, s.col.Name, hi, i, lo, len(s.bytes))
		}
		if hi > lo {
			cells[i] = unsafe.String(&s.bytes[lo], hi-lo)
		}
		lo = hi
	}
	if int(lo) != len(s.bytes) {
		return fmt.Errorf("%w: column %q: string offsets end at %d of %d bytes", ErrDesync, s.col.Name, lo, len(s.bytes))
	}
	s.col.Strings = cells
	return nil
}

// add queues s unless it is empty: an empty slab has no chunks.
func (b *openBatch[E]) add(s slab) {
	if s.size > 0 {
		b.slabs = append(b.slabs, s)
	}
}

// columns opens the frame columns of payload p.
func (b *openBatch[E]) columns(p *Payload, wcs []wireColumn) {
	p.Frame = make([]*frame.Column, len(wcs))
	for i, wc := range wcs {
		c := &frame.Column{Name: wc.Name, Type: wc.Type}
		p.Frame[i] = c
		switch wc.Type {
		case frame.Float64:
			b.add(newSlab(&c.Floats, "float cells", wc.Data[0]))
		case frame.Int64:
			b.add(newSlab(&c.Ints, "int cells", wc.Data[0]))
		case frame.Boolean:
			b.add(newSlab(&c.Bools, "boolean cells", wc.Data[0]))
		case frame.String:
			s := &stringSlabsIn{col: c}
			b.strings = append(b.strings, s)
			b.add(newSlab(&s.offs, "string offsets", wc.Data[0]))
			b.add(newSlab(&s.bytes, "string bytes", wc.Data[1]))
		}
		if wc.NA != nil {
			b.add(newSlab(&c.NA, "NA mask", *wc.NA))
		}
	}
}

// complete cuts the batch's string cells once all its slabs are in.
func (b *openBatch[E]) complete() error {
	for _, s := range b.strings {
		if err := s.cells(); err != nil {
			return err
		}
	}
	return nil
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
	for _, wc := range wp.Frame {
		if err := checkColumn(wc, wp.Rows); err != nil {
			return fmt.Errorf("%w: column %q: %v", ErrDesync, wc.Name, err)
		}
	}
	return nil
}

// checkColumn checks a column descriptor against its frame's row count and
// the slabs its type has.
func checkColumn(wc wireColumn, rows int) error {
	if wc.Len != rows || wc.Len < 0 || int64(wc.Len) > maxSlabBytes/8 {
		return fmt.Errorf("%d cells in a %d-row frame", wc.Len, rows)
	}
	n := wc.Len
	var want []int // each slab's size; -1: the string bytes, checked below
	switch wc.Type {
	case frame.Float64, frame.Int64:
		want = []int{8 * n}
	case frame.Boolean:
		want = []int{n}
	case frame.String:
		want = []int{4 * n, -1}
	default:
		return fmt.Errorf("unknown column type %v", wc.Type)
	}
	if len(wc.Data) != len(want) {
		return fmt.Errorf("%d cell slabs for a %v column", len(wc.Data), wc.Type)
	}
	for i, d := range wc.Data {
		if want[i] >= 0 && d.Size != want[i] {
			return fmt.Errorf("cell slab of %d bytes for %d cells", d.Size, n)
		}
	}
	if wc.Type == frame.String {
		if b := wc.Data[1].Size; b < 0 || int64(b) > maxStringBytes || (n == 0 && b != 0) {
			return fmt.Errorf("string bytes slab of %d bytes for %d cells", b, n)
		}
	}
	if wc.NA != nil && wc.NA.Size != n {
		return fmt.Errorf("NA mask of %d bytes for %d cells", wc.NA.Size, n)
	}
	return nil
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
		*p = Payload{Kind: wp.Kind, Rows: wp.Rows, Cols: wp.Cols, Scalar: wp.Scalar}
		switch {
		case wp.NVals == 0:
			p.Values = []float64{}
		case wp.NVals > 0:
			b.add(newSlab(&p.Values, "values", wireSlab{Size: wp.NVals * 8, CRC: wp.ValsCRC}))
		}
		switch {
		case wp.NBytes == 0:
			p.Bytes = []byte{}
		case wp.NBytes > 0:
			b.add(newSlab(&p.Bytes, "bytes", wireSlab{Size: wp.NBytes, CRC: wp.BytesCRC}))
		}
		if len(wp.Frame) > 0 {
			b.columns(p, wp.Frame)
		}
	}
	if len(b.slabs) == 0 {
		if err := b.complete(); err != nil {
			return 0, nil, err
		}
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
	if n <= 0 || n > slabChunk || n > s.size-s.got || n%s.width != 0 {
		return 0, nil, fmt.Errorf("%w: chunk of %d bytes past its %s slab (call tag %d, %d of %d bytes received)",
			ErrDesync, n, s.what, tag, s.got, s.size)
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
		return 0, nil, fmt.Errorf("%w: %s slab checksum mismatch (%d bytes, call tag %d)", ErrDesync, s.what, s.size, tag)
	}
	if b.slabs = b.slabs[1:]; len(b.slabs) > 0 {
		return tag, nil, nil
	}
	delete(r.open, tag)
	if err := b.complete(); err != nil {
		return 0, nil, err
	}
	return tag, b, nil
}

// fill reads the next n bytes of the slab into its destination, allocating
// it at the first chunk (the eager share, or the chunk if that is larger)
// and growing it by doubling after, never past the slab's size. The CRC
// runs over the wire bytes; on a big-endian host the words are then put in
// native order in place.
func (s *slab) fill(r io.Reader, n int) error {
	lo, hi := s.got, s.got+n
	if hi > len(s.buf) {
		size := len(s.buf)
		if size == 0 {
			size = max(s.eager, hi)
		}
		for size < hi {
			size *= 2
		}
		s.buf = s.grow(min(size, s.size) / s.width)
	}
	b := s.buf[lo:hi]
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	s.crc = crc32.Update(s.crc, castagnoli, b)
	if s.bools {
		for i, v := range b {
			if v > 1 {
				return fmt.Errorf("%w: %s byte %d is %d, not 0 or 1", ErrDesync, s.what, lo+i, v)
			}
		}
	}
	if !hostLittleEndian {
		leOrder(b, b, s.width)
	}
	s.got = hi
	return nil
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

// hostLittleEndian reports whether the native byte order matches the wire
// order; when it does, slabs move as zero-copy writes and reads of their
// arrays' byte views.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// slabChunk is the largest chunk frame, the quantum after which a writer
// gives the connection up, and the size of the portable path's pooled
// conversion buffers.
const slabChunk = 64 << 10

// slabPool recycles the conversion buffers used when a slab of words
// cannot be written zero-copy (big-endian hosts). Destination slabs are
// never pooled — only these transient staging chunks are.
var slabPool = sync.Pool{New: func() any {
	b := make([]byte, slabChunk)
	return &b
}}

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
