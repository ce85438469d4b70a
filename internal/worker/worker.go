// Package worker implements the ExDRa federated worker (§4.1): a standing
// control program at a federated site that listens for federated requests,
// maintains a symbol table of live data objects, executes instructions and
// UDFs over permissioned raw data, checks privacy constraints on data
// exchange, and caches reusable intermediates across pipeline runs.
package worker

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/frame"
	"exdra/internal/lineage"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// Entry is one symbol-table binding. Exactly one of Mat, Fr, Scalar, or Obj
// is meaningful; Level is the data-exchange constraint of the object. Obj
// holds opaque execution-context state (e.g. a parameter-server worker
// session) that UDFs manage and that is never transferable via GET.
type Entry struct {
	// Mat and Comp are the two representations of a matrix binding and are
	// swapped in place by Compact and Matrix; unlike the other fields (set
	// once before the entry is published) they mutate after Put, so both are
	// guarded by Worker.mu.
	Mat    *matrix.Dense // guarded by Worker.mu
	Fr     *frame.Frame
	Scalar float64
	IsScal bool
	Obj    any
	Level  privacy.Level
	// ColLevels optionally carries fine-grained per-column constraints
	// (§4.1); columns beyond the slice default to Level. Column-subset
	// operations (rightIndex) propagate the relevant slice.
	ColLevels []privacy.Level
	// Comp holds the matrix in compressed form after Compact; Matrix
	// transparently decompresses on access. Guarded by Worker.mu.
	Comp *matrix.Compressed
}

// effectiveLevel returns the most restrictive constraint over the whole
// object (coarse level joined with every column constraint).
func (e *Entry) effectiveLevel() privacy.Level {
	level := e.Level
	for _, l := range e.ColLevels {
		level = privacy.Max(level, l)
	}
	return level
}

// describe renders a short human-readable form of the binding for error
// messages and privacy-violation reports. Callers hold mu (the owning
// Worker's) because Mat and Comp swap under it.
func (e *Entry) describe() string {
	switch {
	case e.Mat != nil:
		return fmt.Sprintf("matrix %dx%d", e.Mat.Rows(), e.Mat.Cols())
	case e.Comp != nil:
		return fmt.Sprintf("compressed matrix %dx%d", e.Comp.Rows(), e.Comp.Cols())
	case e.Fr != nil:
		return fmt.Sprintf("frame %dx%d", e.Fr.NumRows(), e.Fr.NumCols())
	default:
		return "scalar"
	}
}

// Worker is a standing federated worker. It is safe for concurrent use by
// multiple coordinator connections.
type Worker struct {
	baseDir string

	// epoch is this worker instance's identity: a random nonzero value
	// generated at construction and stamped on every response. Two Worker
	// values never share an epoch, so a coordinator seeing the epoch
	// change under one address knows the process (and with it the symbol
	// table) was replaced — the restart-detection handshake of the
	// failure model.
	epoch uint64

	mu     sync.RWMutex
	symtab map[int64]*Entry // guarded by mu (and Entry.Mat/Comp swaps)

	// Lineage caches reusable intermediates (e.g. parsed raw files and
	// recode maps) across pipeline runs, per ExDRa §4.4.
	Lineage *lineage.Cache

	// DefaultLevel is assigned to objects created without an explicit
	// constraint (READ/PUT with Privacy 0 means Public by convention; set
	// DefaultLevel to harden a deployment).
	DefaultLevel privacy.Level

	// Metrics receives per-request counters and handling-latency
	// histograms. New wires it to obs.Default(); replace before serving to
	// isolate a worker's metrics.
	Metrics *obs.Registry
}

// New creates a worker that resolves READ filenames relative to baseDir.
func New(baseDir string) *Worker {
	return &Worker{
		baseDir: baseDir,
		epoch:   newEpoch(),
		symtab:  map[int64]*Entry{},
		Lineage: lineage.NewCache(256),
		Metrics: obs.Default(),
	}
}

// newEpoch draws a random nonzero instance epoch. Randomness (rather than,
// say, a start timestamp alone) makes collisions between successive
// processes on the same port vanishingly unlikely even under clock
// adjustments or rapid crash loops.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded entropy: a start-time epoch still distinguishes any two
		// processes not born in the same nanosecond.
		return uint64(time.Now().UnixNano()) | 1
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Epoch returns the worker's instance epoch.
func (w *Worker) Epoch() uint64 { return w.epoch }

// Get returns the entry bound to id.
func (w *Worker) Get(id int64) (*Entry, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.symtab[id]
	if !ok {
		return nil, fmt.Errorf("worker: no object with ID %d", id)
	}
	return e, nil
}

// Matrix returns the matrix bound to id, transparently decompressing
// compacted entries (the decompressed form replaces the compressed one, so
// hot objects pay the cost once).
func (w *Worker) Matrix(id int64) (*matrix.Dense, error) {
	e, err := w.Get(id)
	if err != nil {
		return nil, err
	}
	w.mu.RLock()
	m := e.Mat
	w.mu.RUnlock()
	if m != nil {
		return m, nil
	}
	// Slow path: decompress under the write lock and hand back the pointer
	// captured while still holding it — Compact may swap Mat out again the
	// instant the lock drops, but our snapshot stays valid (Compact never
	// mutates the dense buffer, it only unlinks it).
	w.mu.Lock()
	if e.Mat == nil && e.Comp != nil {
		e.Mat = e.Comp.Decompress()
		e.Comp = nil
	}
	m = e.Mat
	w.mu.Unlock()
	if m == nil {
		w.mu.RLock()
		desc := e.describe()
		w.mu.RUnlock()
		return nil, fmt.Errorf("worker: object %d is not a matrix (%s)", id, desc)
	}
	return m, nil
}

// Frame returns the frame bound to id.
func (w *Worker) Frame(id int64) (*frame.Frame, error) {
	e, err := w.Get(id)
	if err != nil {
		return nil, err
	}
	if e.Fr == nil {
		w.mu.RLock()
		desc := e.describe()
		w.mu.RUnlock()
		return nil, fmt.Errorf("worker: object %d is not a frame (%s)", id, desc)
	}
	return e.Fr, nil
}

// Put binds an entry to id, replacing any previous binding. Replace (not
// reject) semantics are load-bearing for fault tolerance: when a
// coordinator loses the connection after the worker executed a PUT but
// before the reply arrived, the retried PUT simply overwrites the binding
// with identical data instead of failing.
func (w *Worker) Put(id int64, e *Entry) {
	w.mu.Lock()
	w.symtab[id] = e
	w.mu.Unlock()
}

// PutMatrix binds a matrix under a privacy level.
func (w *Worker) PutMatrix(id int64, m *matrix.Dense, level privacy.Level) {
	w.Put(id, &Entry{Mat: m, Level: level})
}

// PutFrame binds a frame under a privacy level.
func (w *Worker) PutFrame(id int64, f *frame.Frame, level privacy.Level) {
	w.Put(id, &Entry{Fr: f, Level: level})
}

// Remove deletes bindings. IDs without a binding are ignored, so rmvar is
// idempotent: a retried cleanup, or a best-effort sweep after an aborted
// parallel operation, never fails on work already done.
func (w *Worker) Remove(ids ...int64) {
	w.mu.Lock()
	for _, id := range ids {
		delete(w.symtab, id)
	}
	w.mu.Unlock()
}

// NumObjects returns the number of live symbol-table bindings.
func (w *Worker) NumObjects() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.symtab)
}

// Handle implements fedrpc.Handler: it executes a batch of federated
// requests and returns one response per request. Execution stops semantics:
// requests in a batch execute in order; a failing request yields an error
// response but later requests still run (matching the paper's independent
// request semantics within an RPC).
//
// Handle is the worker half of the coordinator's retry contract
// (federated.RetryableBatch): READ, PUT, GET, EXEC_INST, and CLEAR are
// idempotent at this layer — re-executing them after a lost reply
// reproduces the same symbol-table state (READ is lineage-cached, PUT
// replaces, rmvar of a missing ID is a no-op, other instructions overwrite
// their output binding deterministically). EXEC_UDF makes no such promise;
// the coordinator never retries it.
func (w *Worker) Handle(reqs []fedrpc.Request) []fedrpc.Response {
	return w.HandleContext(context.Background(), reqs)
}

// HandleContext implements fedrpc.ContextHandler: the server hands the
// worker a context scoped to its own lifetime and — when the coordinator
// put a call budget on the wire — bounded by that deadline. A batch caught
// mid-flight by a shutdown fails its remaining requests instead of racing
// teardown; a batch whose budget expires abandons the remaining requests
// with typed DEADLINE_EXCEEDED responses, which the coordinator treats as
// non-retryable (the budget is spent — DESIGN.md §3.5). Each request is
// timed and counted in the worker's metrics registry.
func (w *Worker) HandleContext(ctx context.Context, reqs []fedrpc.Request) []fedrpc.Response {
	resps := make([]fedrpc.Response, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			resps[i] = abortResponse(err)
			resps[i].Epoch = w.epoch
			w.Metrics.Counter("worker.aborted_requests").Inc()
			continue
		}
		start := time.Now()
		resps[i] = w.handleRecovered(ctx, req)
		w.observe(req, resps[i], time.Since(start))
		// Every response — success or failure — carries the instance
		// epoch, so restart detection needs no extra round trip.
		resps[i].Epoch = w.epoch
	}
	return resps
}

// abortResponse classifies a context failure: a spent call budget gets the
// typed DEADLINE_EXCEEDED code (never retried by coordinators), anything
// else is a shutdown.
func abortResponse(err error) fedrpc.Response {
	if err == context.DeadlineExceeded {
		r := fedrpc.Errorf("deadline exceeded: %v", err)
		r.Code = fedrpc.CodeDeadlineExceeded
		return r
	}
	return fedrpc.Errorf("worker shutting down: %v", err)
}

// observe reports one handled request into the metrics registry.
func (w *Worker) observe(req fedrpc.Request, resp fedrpc.Response, elapsed time.Duration) {
	w.Metrics.Counter("worker.requests." + req.Type.String()).Inc()
	if !resp.OK {
		w.Metrics.Counter("worker.errors").Inc()
	}
	w.Metrics.Histogram("worker.handle_seconds."+req.Type.String(), obs.LatencyBuckets).
		Observe(elapsed.Seconds())
}

// handleRecovered runs one request and turns a panic in it (a kernel's
// shape check, say) into that request's error response. Only the offending
// request fails: the ones before it in the batch — deferred operations the
// coordinator merged ahead of it — have executed and keep their replies,
// and the ones after it still run.
func (w *Worker) handleRecovered(ctx context.Context, req fedrpc.Request) (resp fedrpc.Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = fedrpc.Errorf("%s: worker panic: %v", req.Type, r)
		}
	}()
	return w.handleOne(ctx, req)
}

func (w *Worker) handleOne(ctx context.Context, req fedrpc.Request) fedrpc.Response {
	switch req.Type {
	case fedrpc.Read:
		return w.handleRead(req)
	case fedrpc.Put:
		return w.handlePut(req)
	case fedrpc.Get:
		return w.handleGet(req)
	case fedrpc.ExecInst:
		return w.handleInst(ctx, req)
	case fedrpc.ExecUDF:
		return w.handleUDF(req)
	case fedrpc.Clear:
		// CLEAR is namespace-aware through its otherwise-unused ID field
		// (fedrpc.MakeID): a session's teardown removes only its own
		// bindings, so one session sharing this worker can never destroy
		// another's state. ID 0 — every pre-session coordinator — keeps
		// the legacy clear-everything semantics.
		w.mu.Lock()
		if req.ID == 0 {
			w.symtab = map[int64]*Entry{}
		} else {
			for id := range w.symtab {
				if fedrpc.IDNamespace(id) == req.ID {
					delete(w.symtab, id)
				}
			}
		}
		w.mu.Unlock()
		return fedrpc.Response{OK: true}
	case fedrpc.Health:
		// A pure liveness ping: no symbol-table access, no payload. The
		// epoch stamped by Handle is the entire answer.
		return fedrpc.Response{OK: true}
	default:
		return fedrpc.Errorf("unknown request type %d", req.Type)
	}
}

// handleRead loads a raw data file from the worker's permissioned data
// directory. Formats: .bin (ExDRa binary matrix), .csv (frame with header),
// .mcsv (headerless numeric matrix CSV). Parsed files are lineage-cached so
// repeated exploratory runs skip re-parsing (query-processing-on-raw-data
// style reuse).
func (w *Worker) handleRead(req fedrpc.Request) fedrpc.Response {
	name := filepath.Clean(req.Filename)
	if strings.Contains(name, "..") || filepath.IsAbs(name) {
		return fedrpc.Errorf("READ: illegal path %q", req.Filename)
	}
	path := filepath.Join(w.baseDir, name)
	trace := lineage.LiteralTrace("file", path)
	v, err := w.Lineage.GetOrCompute(trace, func() (any, error) {
		switch {
		case strings.HasSuffix(name, ".bin"):
			return matrix.ReadBinaryFile(path)
		case strings.HasSuffix(name, ".mcsv"):
			f, err := readMatrixCSV(path)
			return f, err
		case strings.HasSuffix(name, ".csv"):
			return frame.ReadCSVFile(path)
		default:
			return nil, fmt.Errorf("READ: unsupported format %q", name)
		}
	})
	if err != nil {
		return fedrpc.Errorf("READ %s: %v", req.Filename, err)
	}
	e := &Entry{Level: privacy.Level(req.Privacy), ColLevels: colLevels(req.ColPrivacy)}
	switch obj := v.(type) {
	case *matrix.Dense:
		e.Mat = obj
	case *frame.Frame:
		e.Fr = obj
	}
	w.Put(req.ID, e)
	return fedrpc.Response{OK: true}
}

// colLevels converts wire integers into constraint levels (nil when the
// request carries no fine-grained constraints).
func colLevels(vals []int) []privacy.Level {
	if len(vals) == 0 {
		return nil
	}
	out := make([]privacy.Level, len(vals))
	for i, v := range vals {
		out[i] = privacy.Level(v)
	}
	return out
}

func readMatrixCSV(path string) (*matrix.Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return matrix.ReadCSV(f)
}

func (w *Worker) handlePut(req fedrpc.Request) fedrpc.Response {
	e := &Entry{Level: privacy.Level(req.Privacy), ColLevels: colLevels(req.ColPrivacy)}
	switch req.Data.Kind {
	case fedrpc.PayloadMatrix:
		e.Mat = req.Data.Matrix()
	case fedrpc.PayloadFrame:
		f, err := req.Data.ToFrame()
		if err != nil {
			return fedrpc.Errorf("PUT: %v", err)
		}
		e.Fr = f
	case fedrpc.PayloadScalar:
		e.Scalar, e.IsScal = req.Data.Scalar, true
	default:
		return fedrpc.Errorf("PUT: unsupported payload kind %d", req.Data.Kind)
	}
	w.Put(req.ID, e)
	return fedrpc.Response{OK: true}
}

func (w *Worker) handleGet(req fedrpc.Request) fedrpc.Response {
	e, err := w.Get(req.ID)
	if err != nil {
		return fedrpc.Errorf("GET: %v", err)
	}
	// Snapshot the Mat/Comp pair under the lock: Compact swaps them in
	// place, and an unlocked reader can catch the moment where both look
	// nil and misclassify a matrix as a scalar. The dense payload is
	// copied (not aliased) while the lock is still held: the reply is
	// serialized by fedrpc's serveConn long after this handler returns,
	// and an in-place instruction (leftIndex) mutating the same binding
	// in that window would otherwise put a torn slab on the wire. The
	// compressed snapshot stays a pointer — Compact never mutates the
	// compressed buffer, it only unlinks it — so the expensive Decompress
	// runs outside the lock.
	w.mu.RLock()
	comp := e.Comp
	var matPayload fedrpc.Payload
	hasMat := e.Mat != nil
	if hasMat {
		matPayload = fedrpc.MatrixPayloadCopy(e.Mat)
	}
	desc := e.describe()
	w.mu.RUnlock()
	if err := privacy.CheckTransfer(e.effectiveLevel(), desc); err != nil {
		return fedrpc.Errorf("GET %d: %v", req.ID, err)
	}
	switch {
	case hasMat:
		return fedrpc.Response{OK: true, Data: matPayload}
	case comp != nil:
		return fedrpc.Response{OK: true, Data: fedrpc.MatrixPayload(comp.Decompress())}
	case e.Fr != nil:
		return fedrpc.Response{OK: true, Data: fedrpc.FramePayload(e.Fr)}
	case e.Obj != nil:
		return fedrpc.Errorf("GET %d: execution-context objects are not transferable", req.ID)
	default:
		return fedrpc.Response{OK: true, Data: fedrpc.ScalarPayload(e.Scalar)}
	}
}
