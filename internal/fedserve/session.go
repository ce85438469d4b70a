package fedserve

import (
	"fmt"
	"sync"
	"time"

	"exdra/internal/federated"
)

// Session is one client's coordinator lease on the shared fleet. Its
// object IDs live in a private namespace (federated.Fleet.NewSession), so
// concurrent sessions' worker-side symbol tables never collide; its
// lifecycle is create (Service.Open) → run (Begin/Coordinator) → close
// (Close, the idle reaper, or drain), with the namespace-scoped CLEAR on
// close guaranteeing no worker objects outlive it.
type Session struct {
	id    string
	svc   *Service
	coord *federated.Coordinator

	mu            sync.Mutex
	lastUsed      time.Time // guarded by mu
	inFlight      int       // in-flight batches admitted by Begin; guarded by mu
	inFlightBytes int64     // summed payload bytes of those batches; guarded by mu
	closed        bool      // guarded by mu
}

// ID returns the session's service-unique identifier.
func (s *Session) ID() string { return s.id }

// Coordinator returns the session's namespace-scoped coordinator. Use it
// for federated operations between Begin/release pairs.
func (s *Session) Coordinator() *federated.Coordinator { return s.coord }

// Namespace returns the session's object-ID namespace.
func (s *Session) Namespace() int64 { return s.coord.Namespace() }

// Begin admits one batch of work carrying roughly `bytes` of payload.
// It enforces the per-session quotas (MaxInFlight, MaxInFlightBytes) and
// the service drain barrier, failing fast with ErrAdmissionRejected /
// ErrDraining / ErrSessionClosed. On success the caller MUST invoke the
// returned release exactly once when the batch completes (success or
// failure) — drain waits on it.
func (s *Session) Begin(bytes int64) (release func(), err error) {
	if err := s.svc.beginOp(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.svc.endOp()
		return nil, ErrSessionClosed
	}
	cfg := s.svc.cfg
	if cfg.MaxInFlight > 0 && s.inFlight >= cfg.MaxInFlight {
		n := s.inFlight
		s.mu.Unlock()
		s.svc.endOp()
		s.svc.reg.Counter("serve.rejections").Inc()
		return nil, fmt.Errorf("fedserve: session %s: %d batches in flight (max %d): %w",
			s.id, n, cfg.MaxInFlight, ErrAdmissionRejected)
	}
	if cfg.MaxInFlightBytes > 0 && s.inFlightBytes+bytes > cfg.MaxInFlightBytes {
		b := s.inFlightBytes
		s.mu.Unlock()
		s.svc.endOp()
		s.svc.reg.Counter("serve.rejections").Inc()
		return nil, fmt.Errorf("fedserve: session %s: %d+%d in-flight bytes (max %d): %w",
			s.id, b, bytes, cfg.MaxInFlightBytes, ErrAdmissionRejected)
	}
	s.inFlight++
	s.inFlightBytes += bytes
	s.lastUsed = time.Now()
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			// Settle the workers before the operation counts as over: an
			// idle session must not pin deferred frees at the coordinator
			// until the reaper, and drain waits on this release. A deferred
			// failure nobody read a value after has no caller left to
			// report to; it is counted.
			if err := s.coord.Flush(); err != nil {
				s.svc.reg.Counter("serve.flush_errors").Inc()
			}
			s.mu.Lock()
			s.inFlight--
			s.inFlightBytes -= bytes
			s.lastUsed = time.Now()
			s.mu.Unlock()
			s.svc.endOp()
		})
	}, nil
}

// InFlight returns the session's current in-flight batch count.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// idleFor reports whether the session has no in-flight work and no
// activity for at least d.
func (s *Session) idleFor(d time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.inFlight == 0 && time.Since(s.lastUsed) >= d
}

// Close ends the session: its worker-side objects are released via the
// namespace-scoped CLEAR (best effort — an unreachable worker's bindings
// die with the worker or its own idle handling), and its coordinator shuts
// down. Later Begin calls fail with ErrSessionClosed. Idempotent.
func (s *Session) Close() { s.close("serve.sessions.closed") }

// closeReaped is Close via the idle reaper, counted separately.
func (s *Session) closeReaped() { s.close("serve.sessions.reaped") }

func (s *Session) close(counter string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if !s.svc.deregister(s.id) {
		return // lost the close race; the winner does the cleanup
	}
	// Count the close when the session leaves the table, not after the
	// network teardown below — observers correlating the counters with
	// NumSessions must never see a deregistered-but-uncounted window.
	s.svc.reg.Counter(counter).Inc()
	s.svc.reg.Gauge("serve.sessions.open").Add(-1)
	// Network teardown happens outside every lock: the scoped CLEAR
	// releases this session's objects on each touched worker without
	// disturbing other sessions' state. ClearAll drops whatever is still
	// deferred before it sends the CLEAR, so nothing can recreate an
	// object behind it.
	_ = s.coord.ClearAll()
	s.coord.Close()
}
