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

// This file is the session half of the failure model (DESIGN.md §3.5): a
// crashed-and-restarted worker process comes back with an empty symbol
// table, so a batch that references pre-restart objects fails with "unknown
// object" however often it is retried.
//
// The fix is lineage-based state reconstruction, the same trade Spark's
// RDD recovery makes against checkpointing: with Policy.Recover the session
// records, per worker object, *how it was created* — READ (source path), PUT
// (retained payload), or EXEC_INST (instruction over input IDs) — as a DAG
// keyed by lineage traces (§4.4, LIMA-style), each record stamped with the
// worker's instance epoch it exists under. Before each attempt the stamps
// the batch depends on are compared with the site's epoch, and what is stale
// is replayed, dependencies first, before the batch leaves. Objects created
// by EXEC_UDF carry side effects the coordinator cannot reproduce; they are
// marked unrecoverable and any operation needing them fails fast with
// ErrUnrecoverable.

// ErrWorkerRestarted reports that a worker answered with a new instance
// epoch — same address, new process, empty symbol table. It is returned
// when recovery is off (fail fast, the default), when the interrupted batch
// is not safe to re-issue, or when a worker crash-loops faster than replay
// can rebuild its state.
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
	// epoch is the worker instance the object exists under: the epoch of
	// the reply that created or last replayed it. A record whose stamp is
	// not the site's current epoch is stale.
	epoch uint64
	// unrecoverable marks EXEC_UDF-created objects: present in the log so
	// their loss is diagnosable, but never replayable.
	unrecoverable bool
}

// workerLog is one session's view of one worker: what it created there
// and under which epoch. All data fields are guarded by the owning
// Coordinator's recMu.
type workerLog struct {
	// seen is all a session without Policy.Recover keeps: the epoch of its
	// last exchange with the worker (0 = none yet). When the site has moved
	// past it, what the session created there is gone.
	seen uint64 // guarded by Coordinator.recMu
	// records is the creation log of a session with Policy.Recover.
	records map[int64]*creationRec // guarded by Coordinator.recMu

	// replayMu serializes replay per worker so two operations recovering
	// the same restarted worker cannot interleave their replay batches
	// (one's trailing rmvar of a shared temp would race the other's use).
	replayMu sync.Mutex
}

// log returns (creating if needed) the session's log for addr.
func (c *Coordinator) log(addr string) *workerLog {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	w, ok := c.logs[addr]
	if !ok {
		w = &workerLog{records: map[int64]*creationRec{}}
		c.logs[addr] = w
	}
	return w
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

// record folds one answered batch into the session's log: with
// Policy.Recover what it created and removed, stamped with the epoch it was
// answered under; without, that epoch alone. Only responses that report
// success create (or remove) bindings.
func (c *Coordinator) record(s *workerLog, reqs []fedrpc.Request, resps []fedrpc.Response, epoch uint64) {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	if !c.fleet.policy.Recover {
		if epoch != 0 {
			s.seen = epoch
		}
		return
	}
	for i, r := range reqs {
		if i >= len(resps) || !resps[i].OK {
			continue
		}
		switch r.Type {
		case fedrpc.Read:
			s.records[r.ID] = &creationRec{
				req: r, trace: lineage.LiteralTrace("file", r.Filename), live: true, epoch: epoch,
			}
		case fedrpc.Put:
			// The payload is retained so the exact bytes can be re-sent;
			// that is the lineage leaf for coordinator-born data.
			s.records[r.ID] = &creationRec{
				req: r, trace: lineage.LiteralTrace("put", r.ID), live: true, epoch: epoch,
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
				live:  true, epoch: epoch,
			}
		case fedrpc.ExecUDF:
			// UDFs may bind an output whose value depends on side effects
			// the coordinator cannot reproduce. Log it as unrecoverable so
			// its loss is precise, not a generic "unknown object".
			if r.UDF != nil && r.UDF.Output != 0 {
				s.records[r.UDF.Output] = &creationRec{
					trace: lineage.LiteralTrace("udf", fmt.Sprintf("%s@%d", r.UDF.Name, r.UDF.Output)),
					deps:  append([]int64(nil), r.UDF.Inputs...),
					live:  true, epoch: epoch, unrecoverable: true,
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
func instTrace(s *workerLog, inst *fedrpc.Instruction) string {
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
func gcRecords(s *workerLog) {
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
// records to re-issue so that every needed ID exists on the worker instance
// epoch, plus the dead temps to rmvar afterwards. A needed unrecoverable
// record yields ErrUnrecoverable.
func (c *Coordinator) planReplay(s *workerLog, ids []int64, epoch uint64) (plan []*creationRec, dead []int64, err error) {
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
		if rec.live && rec.epoch == epoch {
			return nil
		}
		if rec.unrecoverable {
			return fmt.Errorf("%w: object %d (%s) was created by EXEC_UDF and cannot be replayed",
				ErrUnrecoverable, id, rec.trace)
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

// revalidate runs before a batch is sent under the site's epoch: whatever
// the batch reads must exist on that worker instance. With Policy.Recover the
// stale creation-log entries the batch (transitively) depends on are
// replayed as one ordered batch followed by an rmvar of rebuilt dead temps;
// without it, a batch that reads anything from a worker that restarted since
// the session's last exchange fails at once — nothing it needs survived. The
// outcome is outOK when the batch may leave; the epoch returned beside
// outRestartedPartial is the newer one a replay reply revealed.
func (c *Coordinator) revalidate(st *site, s *workerLog, epoch uint64, reqs []fedrpc.Request) (outcome, uint64, error) {
	addr := st.pool.Addr()
	if !c.fleet.policy.Recover {
		c.recMu.Lock()
		stale := s.seen != 0 && epoch != 0 && s.seen != epoch
		if stale {
			s.seen = epoch // reported once; what the session creates from here on is valid
		}
		c.recMu.Unlock()
		if stale && len(neededIDs(reqs)) > 0 {
			return outUnrecoverable, 0, fmt.Errorf("federated: %s: %w (recovery disabled)", addr, ErrWorkerRestarted)
		}
		return outOK, 0, nil
	}
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	plan, dead, err := c.planReplay(s, neededIDs(reqs), epoch)
	if err != nil {
		return outUnrecoverable, 0, fmt.Errorf("federated: %s: %w", addr, err)
	}
	if len(plan) == 0 {
		return outOK, 0, nil
	}
	batch := make([]fedrpc.Request, 0, len(plan)+1)
	for _, rec := range plan {
		batch = append(batch, rec.req)
	}
	if len(dead) > 0 {
		batch = append(batch, rmvar(dead...))
	}
	// replayMu is held across the exchange by design: it exists to
	// serialize whole replay rounds per worker (plan + batch + ack), not
	// to guard data — releasing it before the call would let two
	// recovering operations interleave their replay batches, which is the
	// exact race it was added for. It is a per-worker leaf lock: nothing
	// else is held across the call, and the call itself is deadline-bounded.
	//lint:ignore lockhold replayMu serializes whole replay rounds per worker; leaf lock, deadline-bounded call
	resps, class, err := st.call(obs.WithOp(context.Background(), "replay"), batch)
	if err != nil {
		return class, 0, fmt.Errorf("federated: replay of %d objects at %s: %w", len(plan), addr, err)
	}
	if got := epochOf(resps); got != epoch {
		// The worker restarted again since the site last heard from it, so
		// what the plan took for valid may be gone too. Go round again
		// against the new epoch.
		return outRestartedPartial, got, fmt.Errorf("federated: %s: %w during state replay", addr, ErrWorkerRestarted)
	}
	for i, resp := range resps {
		if !resp.OK {
			c.reg.Counter("fed.replay_failures").Inc()
			return outReplayRejected, 0, fmt.Errorf("federated: replay %s at %s rejected: %s",
				batch[i].Type, addr, resp.Err)
		}
	}
	c.recMu.Lock()
	for _, rec := range plan {
		if rec.live {
			rec.epoch = epoch
		}
	}
	c.recMu.Unlock()
	c.reg.Counter("fed.objects_replayed").Add(int64(len(plan)))
	return outOK, 0, nil
}
