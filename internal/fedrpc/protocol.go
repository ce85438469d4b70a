// Package fedrpc implements the federation protocol of ExDRa §4.1: exactly
// six generic request types (READ, PUT, GET, EXEC_INST, EXEC_UDF, CLEAR)
// exchanged between a coordinator and standing federated workers. A single
// RPC carries a sequence of requests and returns one response per request;
// the coordinator issues RPCs to all workers in parallel. Transport is TCP
// with one wire format (gob control envelope + raw float64 slabs, see
// wire.go), optionally TLS-encrypted (the paper's SSL setting) and
// optionally shaped by package netem for WAN experiments.
package fedrpc

import (
	"context"
	"fmt"

	"exdra/internal/frame"
	"exdra/internal/matrix"
)

// RequestType enumerates the six federation request types of the paper.
type RequestType int

// The six federated request types (ExDRa §4.1).
const (
	// Read creates a data object from a filename at the worker, reads it,
	// and adds it by ID to the symbol table.
	Read RequestType = iota
	// Put receives a transferred data object and adds it by ID to the
	// worker's symbol table.
	Put
	// Get obtains a data object from the worker's symbol table and returns
	// it to the coordinator (subject to privacy constraints).
	Get
	// ExecInst executes an instruction that accesses inputs and outputs by
	// ID in the symbol table.
	ExecInst
	// ExecUDF executes a named user-defined function over requested inputs
	// by ID, may add outputs to the symbol table, and returns a custom
	// payload to the coordinator.
	ExecUDF
	// Clear cleans up execution contexts and variables.
	Clear
	// Health is a lightweight liveness ping. It touches no symbol-table
	// state; its only job is to elicit a response — and with it the
	// worker's instance epoch, so a coordinator can tell "same address,
	// new process" apart from a flaky connection (restart detection).
	// Health extends the paper's six request types; it is the one
	// addition the failure model of DESIGN.md §3.5 requires.
	Health
)

// String returns the protocol name of the request type.
func (t RequestType) String() string {
	names := [...]string{"READ", "PUT", "GET", "EXEC_INST", "EXEC_UDF", "CLEAR", "HEALTH"}
	if int(t) >= 0 && int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("RequestType(%d)", int(t))
}

// Instruction is a runtime instruction shipped via EXEC_INST. Opcode names
// follow DML conventions (e.g. "mm", "tsmm", "uar_sum", "+", "t").
type Instruction struct {
	Opcode  string
	Inputs  []int64
	Output  int64
	Scalars []float64
	Attrs   map[string]string
}

// UDFCall invokes a registered user-defined function via EXEC_UDF. Because
// Go cannot serialize closures, functions are registered by name in a shared
// registry linked into both coordinator and worker (see DESIGN.md,
// substitutions); Args carries the gob-encoded argument payload.
type UDFCall struct {
	Name   string
	Inputs []int64
	Output int64
	Args   []byte
}

// Request is one federated request. Exactly the fields relevant to Type are
// populated.
type Request struct {
	Type     RequestType
	ID       int64  // target symbol-table ID (READ, PUT, GET)
	Filename string // READ
	Privacy  int    // READ, PUT: coarse privacy.Level for the created object
	// ColPrivacy optionally assigns fine-grained per-column constraints
	// (privacy.Level values, one per column) on READ/PUT; columns beyond
	// the slice default to the coarse level.
	ColPrivacy []int
	Data       Payload // PUT
	Inst       *Instruction
	UDF        *UDFCall
}

// Response codes classify failures beyond the human-readable Err string.
// Zero means "no machine-readable class".
const (
	// CodeNone is the zero value: no failure class attached.
	CodeNone = 0
	// CodeDeadlineExceeded marks a request abandoned because the call
	// budget carried on the wire expired before (or while) it executed.
	// Coordinators must not retry the batch on this attempt: the budget is
	// spent, and re-sending would double the caller's wait.
	CodeDeadlineExceeded = 1
)

// ErrDeadlineExceeded is the client-side form of CodeDeadlineExceeded: the
// call's time budget ran out, either locally (the context expired before or
// during the exchange) or remotely (the worker replied with the typed
// code). It wraps context.DeadlineExceeded so errors.Is works with either
// sentinel.
var ErrDeadlineExceeded = fmt.Errorf("fedrpc: DEADLINE_EXCEEDED: %w", context.DeadlineExceeded)

// Response answers one request. Err is empty on success.
type Response struct {
	OK   bool
	Err  string
	Code int     // failure class (Code* constants); 0 when unclassified
	Data Payload // GET and EXEC_UDF results
	// Epoch is the responding worker process's instance epoch: a random
	// nonzero value generated once at process startup and stamped on every
	// response. A coordinator that sees the epoch change under a known
	// address knows the worker process restarted — its symbol table is
	// empty — as opposed to a mere transport failure. Zero means the
	// handler does not stamp epochs.
	Epoch uint64
}

// Errorf builds a failed response.
func Errorf(format string, args ...any) Response {
	return Response{Err: fmt.Sprintf(format, args...)}
}

// ResponseError converts a failed response into the caller-facing error,
// mapping known response codes onto their typed sentinels: a worker-reported
// CodeDeadlineExceeded satisfies errors.Is(err, ErrDeadlineExceeded) exactly
// like a local budget expiry, so retry verdicts cannot diverge
// between the transport-error and typed-reply paths. Unclassified failures
// keep the plain "addr type: message" form.
func ResponseError(addr string, t RequestType, resp Response) error {
	if resp.Code == CodeDeadlineExceeded {
		return fmt.Errorf("fedrpc: %s %s: %w: %s", addr, t, ErrDeadlineExceeded, resp.Err)
	}
	return fmt.Errorf("fedrpc: %s %s: %s", addr, t, resp.Err)
}

// PayloadKind discriminates payload contents.
type PayloadKind int

// Payload kinds.
const (
	PayloadNone PayloadKind = iota
	PayloadMatrix
	PayloadFrame
	PayloadScalar
	PayloadBytes
)

// Payload is a transferable data object. Matrices travel as shape plus the
// raw row-major values; frames as their typed columns.
type Payload struct {
	Kind   PayloadKind
	Rows   int
	Cols   int
	Values []float64
	Frame  []*frame.Column
	Scalar float64
	Bytes  []byte
}

// MatrixPayload wraps a dense matrix for transfer. The payload aliases m's
// backing array — no copy — so the caller must guarantee m is not mutated
// until the payload has been fully serialized (for a coordinator: until
// Call returns). When the matrix can be mutated concurrently (e.g. a GET
// reply serialized after the worker lock is released), use
// MatrixPayloadCopy instead.
func MatrixPayload(m *matrix.Dense) Payload {
	return Payload{Kind: PayloadMatrix, Rows: m.Rows(), Cols: m.Cols(), Values: m.Data()}
}

// MatrixPayloadCopy wraps a dense matrix for transfer, snapshotting its
// backing array. Use it when the matrix may be mutated between payload
// construction and serialization; the copy must happen while the caller
// still holds whatever lock guards the matrix.
func MatrixPayloadCopy(m *matrix.Dense) Payload {
	vals := make([]float64, len(m.Data()))
	copy(vals, m.Data())
	return Payload{Kind: PayloadMatrix, Rows: m.Rows(), Cols: m.Cols(), Values: vals}
}

// Matrix reconstructs the transferred matrix, or nil for non-matrix payloads.
func (p Payload) Matrix() *matrix.Dense {
	if p.Kind != PayloadMatrix {
		return nil
	}
	return matrix.NewDenseData(p.Rows, p.Cols, p.Values)
}

// FramePayload wraps a frame for transfer.
func FramePayload(f *frame.Frame) Payload {
	cols := make([]*frame.Column, f.NumCols())
	for j := range cols {
		cols[j] = f.Column(j)
	}
	return Payload{Kind: PayloadFrame, Rows: f.NumRows(), Cols: f.NumCols(), Frame: cols}
}

// ToFrame reconstructs the transferred frame.
func (p Payload) ToFrame() (*frame.Frame, error) {
	if p.Kind != PayloadFrame {
		return nil, fmt.Errorf("fedrpc: payload is not a frame")
	}
	return frame.New(p.Frame...)
}

// ScalarPayload wraps a scalar for transfer.
func ScalarPayload(v float64) Payload { return Payload{Kind: PayloadScalar, Scalar: v} }

// BytesPayload wraps opaque bytes (e.g. gob-encoded UDF results).
func BytesPayload(b []byte) Payload { return Payload{Kind: PayloadBytes, Bytes: b} }
