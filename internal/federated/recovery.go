package federated

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"exdra/internal/fedrpc"
	"exdra/internal/lineage"
	"exdra/internal/obs"
)

// This file implements the restart-recovery half of the failure model
// (DESIGN.md §3.5): PR 2 made the federation survive transport failures,
// but a crashed-and-restarted worker process comes back with an empty
// symbol table, so every retried batch that references pre-restart objects
// fails with "unknown object" and the exploratory session dies.
//
// The fix is lineage-based state reconstruction, the same trade Spark's
// RDD recovery makes against checkpointing: the coordinator records, per
// worker object, *how it was created* — READ (source path), PUT (retained
// payload), or EXEC_INST (instruction over input IDs) — as a DAG keyed by
// lineage traces (§4.4, LIMA-style). When the epoch handshake detects
// "same address, new process", the coordinator topologically replays
// exactly the log entries the pending operation needs and then resumes the
// retry loop. Objects created by EXEC_UDF carry side effects the
// coordinator cannot reproduce; they are marked unrecoverable and any
// operation needing them fails fast with ErrUnrecoverable.

// ErrWorkerRestarted reports that a worker answered with a new instance
// epoch — same address, new process, empty symbol table. It is returned
// when recovery is disabled (fail fast, the default) or when a worker
// crash-loops faster than replay can rebuild its state.
var ErrWorkerRestarted = errors.New("federated: worker process restarted")

// ErrUnrecoverable reports that a restarted worker's lost state cannot be
// rebuilt from the creation log: a needed object was created by EXEC_UDF
// (e.g. a parameter-server session), whose side effects the coordinator
// cannot replay. Sessions holding such state must fail fast and restart
// from their own durable inputs.
var ErrUnrecoverable = errors.New("federated: worker state not recoverable after restart")

// maxRecoveries bounds replay rounds within a single logical call, so a
// crash-looping worker surfaces as ErrWorkerRestarted instead of an
// unbounded replay loop.
const maxRecoveries = 3

// creationRec is one creation-log entry: everything needed to rebuild one
// worker-side object on a fresh process.
type creationRec struct {
	// req re-creates the object verbatim when re-issued (READ, PUT, or
	// EXEC_INST). Zero-valued for unrecoverable (EXEC_UDF-created) entries.
	req fedrpc.Request
	// trace is the canonical lineage trace of the object (§4.4); equal
	// traces imply equal computations, and the trace names the object in
	// diagnostics.
	trace string
	// deps are the input object IDs the creating instruction reads; they
	// form the replay DAG.
	deps []int64
	// live is false once the object was rmvar'd at the worker. Dead
	// entries are retained while a live object depends on them (broadcast
	// temps consumed by recorded instructions) and garbage-collected
	// otherwise.
	live bool
	// fresh is true while the object is known to exist on the worker's
	// current incarnation. An epoch change flips every record stale;
	// replay flips needed ones back.
	fresh bool
	// unrecoverable marks EXEC_UDF-created objects: present in the log so
	// their loss is diagnosable, but never replayable.
	unrecoverable bool
}

// workerState is the coordinator's per-address recovery state. All data
// fields are guarded by the owning Coordinator's recMu.
type workerState struct {
	epoch   uint64                 // last observed instance epoch (0 = never heard from); guarded by Coordinator.recMu
	healthy bool                   // last probe outcome (true until a probe fails); guarded by Coordinator.recMu
	probed  bool                   // at least one probe/operation completed; guarded by Coordinator.recMu
	records map[int64]*creationRec // guarded by Coordinator.recMu

	// replayMu serializes replay per worker so two operations recovering
	// the same restarted worker cannot interleave their replay batches
	// (one's trailing rmvar of a shared temp would race the other's use).
	replayMu sync.Mutex
}

// RecoveryStats are the coordinator's recovery/health observability
// counters (readable at any time; all counters are cumulative).
type RecoveryStats struct {
	// RestartsDetected counts epoch changes observed under known
	// addresses.
	RestartsDetected int64
	// ObjectsReplayed counts creation-log entries successfully
	// rematerialized on restarted workers.
	ObjectsReplayed int64
	// ReplayFailures counts replay batches rejected by the worker.
	ReplayFailures int64
	// Probes and ProbeFailures count health pings issued and failed.
	Probes, ProbeFailures int64
}

// EnableRecovery turns the creation log on or off. With recovery enabled
// the coordinator records how every worker-side object is created and,
// when the epoch handshake detects a restarted worker, replays the log
// entries the pending operation needs before resuming its retry loop.
// Pair it with a RetryPolicy: replay rebuilds state, retries re-issue the
// interrupted batch. Call it before issuing federated operations.
func (c *Coordinator) EnableRecovery(on bool) {
	c.recovery = on
}

// RecoveryEnabled reports whether the creation log is active.
func (c *Coordinator) RecoveryEnabled() bool { return c.recovery }

// Stats returns the recovery/health counters.
func (c *Coordinator) Stats() RecoveryStats {
	return RecoveryStats{
		RestartsDetected: c.statRestarts.Load(),
		ObjectsReplayed:  c.statReplayed.Load(),
		ReplayFailures:   c.statReplayFail.Load(),
		Probes:           c.statProbes.Load(),
		ProbeFailures:    c.statProbeFail.Load(),
	}
}

// state returns (creating if needed) the recovery state for addr.
func (c *Coordinator) state(addr string) *workerState {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	return c.stateLocked(addr)
}

func (c *Coordinator) stateLocked(addr string) *workerState {
	s, ok := c.states[addr]
	if !ok {
		s = &workerState{healthy: true, records: map[int64]*creationRec{}}
		c.states[addr] = s
	}
	return s
}

// epochOf extracts the responding process's instance epoch from a reply
// (all responses of one reply carry the same epoch; 0 = unstamped).
func epochOf(resps []fedrpc.Response) uint64 {
	for _, r := range resps {
		if r.Epoch != 0 {
			return r.Epoch
		}
	}
	return 0
}

// observeEpoch folds a reply's epoch into the per-worker state and reports
// whether it reveals a restart: a known address answering under a new
// epoch. First contact just records the epoch. On a restart every creation
// record is marked stale — the new process has an empty symbol table.
func (c *Coordinator) observeEpoch(addr string, epoch uint64) (restarted bool) {
	if epoch == 0 {
		return false
	}
	c.recMu.Lock()
	defer c.recMu.Unlock()
	s := c.stateLocked(addr)
	switch s.epoch {
	case 0, epoch:
		s.epoch = epoch
		return false
	default:
		s.epoch = epoch
		for _, rec := range s.records {
			rec.fresh = false
		}
		c.statRestarts.Add(1)
		c.reg.Counter("fed.restarts_detected").Inc()
		return true
	}
}

// recordBatch folds one successfully delivered batch into the creation
// log. Only responses that report success create (or remove) bindings.
func (c *Coordinator) recordBatch(addr string, reqs []fedrpc.Request, resps []fedrpc.Response) {
	if !c.recovery {
		return
	}
	c.recMu.Lock()
	defer c.recMu.Unlock()
	s := c.stateLocked(addr)
	for i, r := range reqs {
		if i >= len(resps) || !resps[i].OK {
			continue
		}
		switch r.Type {
		case fedrpc.Read:
			s.records[r.ID] = &creationRec{
				req: r, trace: lineage.LiteralTrace("file", r.Filename), live: true, fresh: true,
			}
		case fedrpc.Put:
			// The payload is retained so the exact bytes can be re-sent;
			// that is the lineage leaf for coordinator-born data.
			s.records[r.ID] = &creationRec{
				req: r, trace: lineage.LiteralTrace("put", r.ID), live: true, fresh: true,
			}
		case fedrpc.ExecInst:
			inst := r.Inst
			if inst == nil {
				continue
			}
			if inst.Opcode == "rmvar" {
				for _, id := range inst.Inputs {
					if rec := s.records[id]; rec != nil {
						rec.live = false
					}
				}
				gcRecords(s)
				continue
			}
			if inst.Output == 0 {
				continue
			}
			s.records[inst.Output] = &creationRec{
				req:   r,
				trace: instTrace(s, inst),
				deps:  append([]int64(nil), inst.Inputs...),
				live:  true, fresh: true,
			}
		case fedrpc.ExecUDF:
			// UDFs may bind an output whose value depends on side effects
			// the coordinator cannot reproduce. Log it as unrecoverable so
			// its loss is precise, not a generic "unknown object".
			if r.UDF != nil && r.UDF.Output != 0 {
				s.records[r.UDF.Output] = &creationRec{
					trace: lineage.LiteralTrace("udf", fmt.Sprintf("%s@%d", r.UDF.Name, r.UDF.Output)),
					deps:  append([]int64(nil), r.UDF.Inputs...),
					live:  true, fresh: true, unrecoverable: true,
				}
			}
		case fedrpc.Clear:
			s.records = map[int64]*creationRec{}
		}
	}
}

// instTrace builds the canonical lineage trace of an instruction output:
// opcode (with scalars and sorted attrs folded in) over the traces of its
// inputs. Unknown inputs degrade to literal ID traces. Callers hold recMu.
func instTrace(s *workerState, inst *fedrpc.Instruction) string {
	op := inst.Opcode
	if len(inst.Scalars) > 0 {
		op = fmt.Sprintf("%s%v", op, inst.Scalars)
	}
	if len(inst.Attrs) > 0 {
		keys := make([]string, 0, len(inst.Attrs))
		for k := range inst.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			op += fmt.Sprintf("{%s=%s}", k, inst.Attrs[k])
		}
	}
	in := make([]string, len(inst.Inputs))
	for i, id := range inst.Inputs {
		if rec := s.records[id]; rec != nil {
			in[i] = rec.trace
		} else {
			in[i] = lineage.LiteralTrace("id", id)
		}
	}
	return lineage.Item{Op: op, Inputs: in}.Trace()
}

// gcRecords drops dead creation records no live object depends on
// (transitively). Dead-but-reachable entries — broadcast temps consumed by
// recorded instructions — are retained: replaying their dependents needs
// them back, briefly. Callers hold recMu.
func gcRecords(s *workerState) {
	reachable := map[int64]bool{}
	var mark func(id int64)
	mark = func(id int64) {
		if reachable[id] {
			return
		}
		rec := s.records[id]
		if rec == nil {
			return
		}
		reachable[id] = true
		for _, d := range rec.deps {
			mark(d)
		}
	}
	for id, rec := range s.records {
		if rec.live {
			mark(id)
		}
	}
	for id, rec := range s.records {
		if !rec.live && !reachable[id] {
			delete(s.records, id)
		}
	}
}

// neededIDs lists the worker objects a batch reads and therefore requires
// to exist before it is issued: GET targets and instruction/UDF inputs.
// rmvar inputs are exempt (removing a missing ID is a no-op), as are
// READ/PUT targets (they create, not read).
func neededIDs(reqs []fedrpc.Request) []int64 {
	var ids []int64
	for _, r := range reqs {
		switch r.Type {
		case fedrpc.Get:
			ids = append(ids, r.ID)
		case fedrpc.ExecInst:
			if r.Inst != nil && r.Inst.Opcode != "rmvar" {
				ids = append(ids, r.Inst.Inputs...)
			}
		case fedrpc.ExecUDF:
			if r.UDF != nil {
				ids = append(ids, r.UDF.Inputs...)
			}
		}
	}
	return ids
}

// planReplay computes, under recMu, the dependency-ordered creation
// records to re-issue so that every needed ID exists on the worker's
// current incarnation, plus the dead temps to rmvar afterwards. A needed
// unrecoverable record yields ErrUnrecoverable in strict mode and is
// skipped otherwise (best-effort proactive repair).
func (c *Coordinator) planReplay(s *workerState, ids []int64, strict bool) (plan []*creationRec, dead []int64, err error) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	visited := map[int64]bool{}
	var visit func(id int64) error
	visit = func(id int64) error {
		if visited[id] {
			return nil
		}
		visited[id] = true
		rec := s.records[id]
		if rec == nil {
			return nil // untracked: the operation's own error reporting covers it
		}
		if rec.live && rec.fresh {
			return nil
		}
		if rec.unrecoverable {
			if strict {
				return fmt.Errorf("%w: object %d (%s) was created by EXEC_UDF and cannot be replayed",
					ErrUnrecoverable, id, rec.trace)
			}
			return nil
		}
		for _, d := range rec.deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		plan = append(plan, rec)
		if !rec.live {
			// A dead temp rebuilt only as a dependency: rematerialize it
			// for the replay, then remove it again so the worker's symbol
			// table matches the pre-restart state.
			dead = append(dead, id)
		}
		return nil
	}
	for _, id := range ids {
		if err := visit(id); err != nil {
			return nil, nil, err
		}
	}
	return plan, dead, nil
}

// ensureIDs rematerializes, on the worker's current incarnation, every
// stale creation-log entry the given IDs (transitively) depend on. It
// issues the replay as one ordered batch followed by an rmvar of rebuilt
// dead temps. The transient return distinguishes transport failures (the
// caller's retry loop redials and re-enters) from fatal ones
// (ErrUnrecoverable, replay rejected by the worker).
func (c *Coordinator) ensureIDs(addr string, cl *fedrpc.Client, ids []int64, strict bool) (transient bool, err error) {
	s := c.state(addr)
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	plan, dead, err := c.planReplay(s, ids, strict)
	if err != nil {
		return false, err
	}
	if len(plan) == 0 {
		return false, nil
	}
	batch := make([]fedrpc.Request, 0, len(plan)+1)
	for _, rec := range plan {
		batch = append(batch, rec.req)
	}
	if len(dead) > 0 {
		batch = append(batch, fedrpc.Request{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
			Opcode: "rmvar", Inputs: dead,
		}})
	}
	// replayMu is held across the exchange by design: it exists to
	// serialize whole replay rounds per worker (plan + batch + ack), not
	// to guard data — releasing it before the call would let two
	// recovering operations interleave their replay batches, which is the
	// exact race it was added for. It is a per-worker leaf lock: nothing
	// else is acquired under it, and the call itself is deadline-bounded.
	//lint:ignore lockhold replayMu serializes whole replay rounds per worker; leaf lock, deadline-bounded call
	resps, err := cl.CallCtx(obs.WithOp(context.Background(), "replay"), batch...)
	if err != nil {
		return true, fmt.Errorf("federated: replay of %d objects at %s: %w", len(plan), addr, err)
	}
	if c.observeEpoch(addr, epochOf(resps)) {
		// The worker restarted again mid-replay; everything just rebuilt
		// is stale already. Let the caller's loop re-enter.
		return true, fmt.Errorf("federated: %s: %w during state replay", addr, ErrWorkerRestarted)
	}
	for i, resp := range resps {
		if !resp.OK {
			c.statReplayFail.Add(1)
			c.reg.Counter("fed.replay_failures").Inc()
			return false, fmt.Errorf("federated: replay %s at %s rejected: %s",
				batch[i].Type, addr, resp.Err)
		}
	}
	c.recMu.Lock()
	for _, rec := range plan {
		if rec.live {
			rec.fresh = true
		}
	}
	c.recMu.Unlock()
	c.statReplayed.Add(int64(len(plan)))
	c.reg.Counter("fed.objects_replayed").Add(int64(len(plan)))
	return false, nil
}

// Repair proactively rematerializes every live, recoverable object of one
// worker — the health prober calls it after a restarted worker comes back,
// so standing sessions heal before their next operation touches the
// address. Unrecoverable objects are skipped (their loss surfaces, with a
// precise error, only when an operation actually needs them).
func (c *Coordinator) Repair(addr string) error {
	if !c.recovery {
		return nil
	}
	c.recMu.Lock()
	s := c.stateLocked(addr)
	ids := make([]int64, 0, len(s.records))
	for id, rec := range s.records {
		if rec.live && !rec.fresh && !rec.unrecoverable {
			ids = append(ids, id)
		}
	}
	c.recMu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	cl, err := c.sharedClient(addr)
	if err != nil {
		return err
	}
	_, err = c.ensureIDs(addr, cl, ids, false)
	return err
}

// setHealthy records a probe outcome for WorkerHealth.
func (c *Coordinator) setHealthy(addr string, ok bool) {
	c.recMu.Lock()
	s := c.stateLocked(addr)
	s.healthy = ok
	s.probed = true
	c.recMu.Unlock()
}

// WorkerHealth returns the last known liveness of every worker the
// coordinator has talked to or probed (true = last contact succeeded).
func (c *Coordinator) WorkerHealth() map[string]bool {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	out := make(map[string]bool, len(c.states))
	for addr, s := range c.states {
		if s.probed {
			out[addr] = s.healthy
		}
	}
	return out
}
