// Package fedserve is the standing coordinator service: it multiplexes many
// concurrent sessions over one shared federated worker fleet.
//
// The paper's ExDRa prototype pairs one interactive data scientist with one
// control program, so its coordinator assumes it owns the workers' symbol
// tables and connections outright. A production deployment (ROADMAP north
// star) serves heavy concurrent traffic instead: many exploratory sessions
// against the same raw-data sites at once. fedserve supplies the missing
// subsystem — the session lifecycle (create → run → close with guaranteed
// cleanup, plus idle-timeout reaping), admission control with per-session
// quotas, and graceful drain — on top of the sharing substrate the
// federated.Fleet provides (per-address connection pools, shared restart
// detection, session ID namespaces).
//
// Observability: serve.sessions.opened / closed / reaped counters, the
// serve.sessions.open gauge, and serve.rejections for admission failures;
// the fleet's pools report serve.pool.* underneath.
package fedserve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exdra/internal/federated"
	"exdra/internal/obs"
)

// ErrAdmissionRejected marks work refused by admission control: a new
// session beyond MaxSessions, or a batch beyond a session's in-flight
// quota. It is a load-shedding signal, not a failure of the work itself —
// callers (e.g. an HTTP front end) should map it to "try again later" and
// can errors.Is for it. Every rejection increments serve.rejections.
var ErrAdmissionRejected = errors.New("fedserve: admission rejected")

// ErrDraining marks requests refused because the service is shutting down:
// drain stops admitting new sessions and new batches while in-flight work
// finishes under its own deadlines.
var ErrDraining = errors.New("fedserve: service is draining")

// ErrSessionClosed marks operations on a session that was closed — by its
// owner, by the idle reaper, or by drain.
var ErrSessionClosed = errors.New("fedserve: session closed")

// Config tunes the service. The zero value of any field means "unlimited"
// (or, for ReapInterval, a default derived from IdleTimeout).
type Config struct {
	// MaxSessions caps concurrently open sessions; Open beyond it fails
	// fast with ErrAdmissionRejected.
	MaxSessions int
	// MaxInFlight caps in-flight batches per session; Begin beyond it
	// fails fast with ErrAdmissionRejected.
	MaxInFlight int
	// MaxInFlightBytes caps the summed payload bytes of a session's
	// in-flight batches.
	MaxInFlightBytes int64
	// IdleTimeout, when positive, lets the reaper close sessions with no
	// in-flight work and no activity for this long, reclaiming their
	// worker-side objects. Clients holding a reaped session see
	// ErrSessionClosed on their next batch.
	IdleTimeout time.Duration
	// ReapInterval is the reaper's scan period (default IdleTimeout/4,
	// floored at 100ms). Only meaningful with IdleTimeout > 0.
	ReapInterval time.Duration
	// Metrics is the registry the serve.* series report into (nil uses
	// obs.Default()).
	Metrics *obs.Registry
}

// Service is a standing multi-session coordinator service over one shared
// worker fleet. It admits sessions (Open), gates their traffic (quotas via
// Session.Begin), reaps idle ones, and drains cleanly on shutdown. The
// fleet's lifecycle stays with the caller: Close tears down every session's
// worker-side state but leaves the fleet's connections to their owner.
type Service struct {
	cfg   Config
	fleet *federated.Fleet
	reg   *obs.Registry

	mu       sync.Mutex
	sessions map[string]*Session // guarded by mu
	draining bool                // guarded by mu
	closed   bool                // guarded by mu

	done     chan struct{} // closed by Close; stops the reaper
	opWg     sync.WaitGroup
	reaperWg sync.WaitGroup
	nextSess atomic.Int64
}

// New creates a service over fleet and starts its idle reaper (when
// IdleTimeout is configured).
func New(fleet *federated.Fleet, cfg Config) *Service {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		cfg:      cfg,
		fleet:    fleet,
		reg:      reg,
		sessions: map[string]*Session{},
		done:     make(chan struct{}),
	}
	if cfg.IdleTimeout > 0 {
		s.reaperWg.Add(1)
		go s.reapLoop()
	}
	return s
}

// Fleet returns the shared worker fleet this service multiplexes over.
func (s *Service) Fleet() *federated.Fleet { return s.fleet }

// Open admits one new session: a fresh coordinator view of the shared
// fleet under its own object namespace. Over MaxSessions it fails fast
// with ErrAdmissionRejected; during drain, with ErrDraining.
func (s *Service) Open() (*Session, error) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		n := len(s.sessions)
		s.mu.Unlock()
		s.reg.Counter("serve.rejections").Inc()
		return nil, fmt.Errorf("fedserve: %d sessions open (max %d): %w",
			n, s.cfg.MaxSessions, ErrAdmissionRejected)
	}
	id := "s" + strconv.FormatInt(s.nextSess.Add(1), 10)
	s.mu.Unlock()

	// The coordinator is built outside s.mu (it touches fleet state); the
	// session count may briefly overshoot between the check above and the
	// re-insert below only if Open races itself, so re-check on insert.
	coord, err := s.fleet.NewSession()
	if err != nil {
		return nil, err
	}
	sess := &Session{id: id, svc: s, coord: coord, lastUsed: time.Now()}

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		coord.Close()
		return nil, ErrDraining
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		n := len(s.sessions)
		s.mu.Unlock()
		coord.Close()
		s.reg.Counter("serve.rejections").Inc()
		return nil, fmt.Errorf("fedserve: %d sessions open (max %d): %w",
			n, s.cfg.MaxSessions, ErrAdmissionRejected)
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.reg.Counter("serve.sessions.opened").Inc()
	s.reg.Gauge("serve.sessions.open").Add(1)
	return sess, nil
}

// Session returns an open session by ID, or nil.
func (s *Service) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Sessions snapshots the open sessions.
func (s *Service) Sessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// NumSessions returns the number of open sessions.
func (s *Service) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// deregister removes a closing session from the table. It reports whether
// the session was still registered (false = someone else closed it first).
func (s *Service) deregister(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

// beginOp gates one unit of in-flight work on the drain barrier. On
// success the service's operation count includes it until endOp.
func (s *Service) beginOp() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return ErrDraining
	}
	s.opWg.Add(1)
	return nil
}

func (s *Service) endOp() { s.opWg.Done() }

// Drain gracefully shuts the service down: stop admitting sessions and
// batches, wait for in-flight batches to finish (they complete under their
// own deadline machinery), then close every session — releasing all its
// worker-side objects via its namespace-scoped CLEAR. If ctx expires while
// in-flight work is still running, Drain proceeds to teardown anyway and
// returns ctx's error: a bounded drain beats a hung shutdown.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		s.opWg.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = fmt.Errorf("fedserve: drain: %w", ctx.Err())
	}
	for _, sess := range s.Sessions() {
		sess.Close()
	}
	return err
}

// Close stops the reaper and closes every remaining session (without the
// drain grace — callers wanting graceful shutdown call Drain first). The
// shared fleet is left to its owner. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.reaperWg.Wait()
	for _, sess := range s.Sessions() {
		sess.Close()
	}
}

// reapLoop periodically closes sessions that have sat idle — no in-flight
// batches, no activity — past IdleTimeout, reclaiming their worker-side
// objects. An abandoned exploratory session (the data scientist went to
// lunch, the client crashed without Close) must not pin symbol-table
// memory on every worker forever.
func (s *Service) reapLoop() {
	defer s.reaperWg.Done()
	interval := s.cfg.ReapInterval
	if interval <= 0 {
		interval = s.cfg.IdleTimeout / 4
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		for _, sess := range s.Sessions() {
			if sess.idleFor(s.cfg.IdleTimeout) {
				sess.closeReaped()
			}
		}
		t.Reset(interval)
	}
}
