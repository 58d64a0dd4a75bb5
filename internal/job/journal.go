package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/codec"
	"repro/internal/command"
	"repro/internal/errs"
	"repro/internal/store"
)

// The job journal persists job records through the system's store under
// "j:<id>" keys (see docs/storage.md), so a daemon restart recovers the
// complete terminal job history.  Records are written at submit
// (queued) and overwritten at the terminal transition with the result;
// a record still non-terminal when a process is killed is, by
// definition, a job the crash destroyed — recovery rewrites it as
// Failed with a deterministic "lost to restart" cause.
//
// Within the retention window a Done job is held once: after the Wait
// that delivers its outcome its record is its only full copy, and the
// scheduler keeps only its id, in its retention order (settleLocked); a
// recovered job is held that way from the start.  Status, Wait, Cancel
// and List read a settled job from the journal (journalLookup), and
// Close reads the settled jobs back, so they answer from memory once
// the store has closed.
//
// The journal also outlives retention eviction: evictLocked makes sure a
// record is in the journal before dropping it from memory (writing it
// then if the terminal write failed or never happened), and
// Status/Wait/Cancel fall back to the journal for ids the in-memory map
// no longer holds.  A journal on a store that dies with the process
// keeps only the retention window instead, writes each job once, at its
// terminal transition, and deletes a record when eviction drops its job
// (ForgetEvicted).

// journalRecord is the JSON encoding of one job record.  Cmd and Result
// reuse the wire envelopes (command.MarshalCommand/MarshalResult), so
// the journal schema evolves with the protocol instead of forking it.
type journalRecord struct {
	ID     int64           `json:"id"`
	Owner  string          `json:"owner"`
	Model  string          `json:"model,omitempty"`
	Cmd    json.RawMessage `json:"cmd"`
	State  string          `json:"state"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Ops    int64           `json:"ops,omitempty"`
	Flops  int64           `json:"flops,omitempty"`
	Cycles int64           `json:"cycles,omitempty"`
	// Epoch is the cluster lease epoch the writing daemon held (see
	// internal/cluster); 0 outside a cluster.  A takeover's journal
	// replay can tell which leadership stint wrote each record.
	Epoch int64 `json:"epoch,omitempty"`
	// Command and Res are the job's own command and result, written in
	// place of Cmd and Result: the record of a live job is encoded in one
	// pass with no envelope built in between.  decodeRecord fills them
	// from the bytes it reads.
	Command command.Command `json:"-" codec:"cmd"`
	Res     command.Result  `json:"-" codec:"result"`
	// cmdErr is why a record read by encoding/json has no Command: its
	// command envelope does not decode.  Recovery reports it for a record
	// it loads, as it reports any other damage there.
	cmdErr error
	// filed is set by recovery on a record it found under its own id's
	// key, or rewrote there: a lookup of the id reads it.
	filed bool
}

// recordPlan writes a journalRecord byte for byte as encoding/json did,
// and reads back the canonical form it writes (decodeRecord).
var recordPlan = codec.PlanOf(reflect.TypeOf(journalRecord{}), command.CommandCodec, command.ResultCodec)

// decodeRecord reads one job record into rec, a zero record: through
// recordPlan when the bytes are in the form recordLocked writes, else with
// encoding/json (a record carrying a key no longer written, one spelt some
// other way), as wire.DecodeRequest does.  Either way the Command and Res
// twins come back set from the bytes — Res nil when the result does not
// decode, as recovery has always treated it.  When the plan read the
// record, its raw Cmd and Result alias raw.  The error is encoding/json's,
// for bytes that are not a record at all.
func decodeRecord(raw []byte, rec *journalRecord) error {
	if rest, ok := recordPlan.Decode(raw, reflect.ValueOf(rec).Elem()); ok && len(rest) == 0 {
		return nil
	}
	*rec = journalRecord{}
	if err := json.Unmarshal(raw, rec); err != nil {
		return err
	}
	rec.Command, rec.cmdErr = command.UnmarshalCommand(rec.Cmd)
	if len(rec.Result) > 0 {
		rec.Res, _ = command.UnmarshalResult(rec.Result)
	}
	return nil
}

// lostErr is the deterministic failure text recovery writes on a job
// the crash destroyed.
func lostErr(id int64) string { return fmt.Sprintf("job-%d lost to restart", id) }

// AttachJournal connects the scheduler to a store and recovers the job
// history it holds: terminal records come back verbatim, jobs that were
// queued or running when the previous process died are rewritten as
// Failed with a "lost to restart" cause, and the id counter resumes
// past the highest recovered id.  The most recent records (up to the
// retention bound) are loaded into memory so the jobs verb lists them;
// everything stays readable through the journal fallback regardless.
// It returns the number of records recovered.  Call it once, before
// the scheduler sees traffic: it is SetJournal followed by
// RecoverJournal, which on a fresh scheduler has no terminal job in
// memory to drop.  The recovered jobs are settled: their records answer
// for them.
func (s *Scheduler) AttachJournal(st store.Store) (int, error) {
	s.SetJournal(st)
	return s.RecoverJournal()
}

// SetJournal attaches the store handle without the recovery scan.  The
// clustered core.Open uses it: a follower answers job lookups from
// the journal read-only (journalLookup), while recovery — which
// rewrites records — waits for promotion (RecoverJournal).
func (s *Scheduler) SetJournal(st store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = st
}

// ForgetEvicted makes retention eviction delete the evicted job's record
// from the journal rather than keep it: for a store that dies with the
// process, where no restart will read the record and only memory pays
// for it.  The delete is made at eviction, so an evicted id is not found
// from then on.  No queued record is written either — nothing could
// read it: a live job is answered from memory — so a job costs the store
// its terminal record, and past the window the delete of the job its
// submit evicted.
func (s *Scheduler) ForgetEvicted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forget = true
}

// RecoverJournal is the cluster-takeover replay: a freshly promoted
// leader re-reads the journal its dead predecessor wrote (the store
// was sealed and refreshed first) and rebuilds the in-memory job map
// from it — non-terminal records become deterministic "lost to
// restart" failures, the id counter resumes past the highest id, and
// the jobs verb lists the same history the old leader would have.
// Terminal in-memory records from an earlier stint are dropped in
// favour of the journal's view; jobs still executing locally (a
// demoted-then-repromoted leader) are kept and shielded from the
// replay.
func (s *Scheduler) RecoverJournal() (int, error) {
	s.recovery.Lock()
	defer s.recovery.Unlock()
	return s.recoverJournal()
}

// rereadJournal runs the recovery again after a scan that failed, for
// Submit: a store whose read failed once, at a promotion or at attach,
// takes jobs as soon as it reads again.  It returns the scan's error
// while the scan still fails, and nil at once when another caller's scan
// has succeeded meanwhile.  With no job submitted since the failed scan,
// the in-memory jobs are those RecoverJournal keeps, so the rerun is the
// recovery that failed.
func (s *Scheduler) rereadJournal() error {
	s.recovery.Lock()
	defer s.recovery.Unlock()
	s.mu.Lock()
	failed := s.unread != nil
	s.mu.Unlock()
	if !failed {
		return nil
	}
	_, err := s.recoverJournal()
	return err
}

// recoverJournal is RecoverJournal under s.recovery.
func (s *Scheduler) recoverJournal() (int, error) {
	s.mu.Lock()
	st := s.journal
	if st == nil {
		// No journal to take the history from: memory is the history,
		// and is kept.
		s.mu.Unlock()
		return 0, nil
	}
	kept := map[JobID]*job{}
	var order []JobID
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok && !j.state.Terminal() {
			kept[id] = j
			order = append(order, id)
		}
	}
	s.jobs, s.order = kept, order
	s.syncSettledGaugeLocked()
	s.mu.Unlock()
	return s.loadJournal(st)
}

// loadJournal is recoverJournal's scan of st.  Records whose id is
// currently live in memory are skipped entirely — they are this
// process's own running jobs, not the dead writer's leftovers.  A scan
// that fails — the store's read, a record that does not decode, the
// rewrite — loads nothing, and is returned and kept in Scheduler.unread
// until a scan succeeds.  The caller holds s.recovery.
func (s *Scheduler) loadJournal(st store.Store) (int, error) {
	s.mu.Lock()
	retain := s.retain
	liveIDs := map[int64]bool{}
	for id, j := range s.jobs {
		if !j.state.Terminal() {
			liveIDs[int64(id)] = true
		}
	}
	s.mu.Unlock()

	// Crash-interrupted records are rewritten before any job is loaded,
	// so the store and the in-memory view agree even if we crash again
	// mid-recovery.  The rewrite keeps the command's own bytes, so it is
	// built while the Seek value they are read from is still ours.
	var recs []journalRecord
	var fixups []store.Op
	var scanErr error
	seekErr := st.Seek(store.PrefixJob, func(k string, v []byte) bool {
		var rec journalRecord
		if err := decodeRecord(v, &rec); err != nil {
			scanErr = fmt.Errorf("job: corrupt journal record %q: %w", k, err)
			return false
		}
		if liveIDs[rec.ID] {
			return true
		}
		if st, err := ParseState(rec.State); err != nil || !st.Terminal() {
			lost := rec
			lost.State, lost.Err, lost.Result, lost.Command, lost.Res = Failed.String(), lostErr(rec.ID), nil, nil, nil
			raw, err := recordPlan.Append(nil, reflect.ValueOf(&lost).Elem())
			if err != nil {
				scanErr = fmt.Errorf("job: re-encode journal record: %w", err)
				return false
			}
			fixups = append(fixups, store.Put(store.JobKey(rec.ID), raw))
			rec.State, rec.Err, rec.Res = lost.State, lost.Err, nil
			rec.filed = true
		} else {
			rec.filed = k == store.JobKey(rec.ID)
		}
		// The twins carry what the raw fields hold, and those may alias
		// v, which is the store's again once this call returns.
		rec.Cmd, rec.Result = nil, nil
		recs = append(recs, rec)
		return true
	})
	if scanErr == nil && seekErr != nil {
		scanErr = fmt.Errorf("job: reading the journal: %w", seekErr)
	}
	// Build the most recent records' jobs, oldest first so order and
	// eviction behave exactly as if the jobs had run here, before any is
	// loaded: one that does not decode fails the scan.  They load settled,
	// but for a record found under another id's key, which no lookup of
	// its own id reads: that job is held in full, and written under its
	// key at eviction, as a job whose terminal write failed is.
	var loaded []*job
	if scanErr == nil {
		sort.Slice(recs, func(i, k int) bool { return recs[i].ID < recs[k].ID })
		first := 0
		if retain > 0 && len(recs) > retain {
			first = len(recs) - retain
		}
		loaded = make([]*job, 0, len(recs)-first)
		for i := range recs[first:] {
			j, err := jobFromRecord(&recs[first+i])
			if err != nil {
				scanErr = err
				break
			}
			j.filed = recs[first+i].filed
			loaded = append(loaded, j)
		}
	}
	if scanErr == nil && len(fixups) > 0 {
		if err := st.Batch(fixups); err != nil {
			scanErr = fmt.Errorf("job: rewriting crashed jobs: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unread = scanErr; scanErr != nil {
		return 0, scanErr
	}
	for _, j := range loaded {
		if !j.filed {
			s.jobs[j.id] = j
		}
		s.order = append(s.order, j.id)
	}
	s.syncSettledGaugeLocked()
	if len(recs) > 0 {
		if max := recs[len(recs)-1].ID; max > s.next {
			s.next = max
		}
	}
	return len(recs), nil
}

// recordLocked builds the journal encoding of a job's current state,
// stamped with the cluster epoch when an epoch source is wired, in the
// scheduler's record buffer: it is good until the next call.  The record
// is the scheduler's own, so encoding one allocates nothing; it is
// cleared after the encode so it keeps no job's command or result alive.
// whole is false when the job's result had to be left out.
func (s *Scheduler) recordLocked(j *job) (raw []byte, whole bool, err error) {
	rec := &s.rec
	*rec = journalRecord{
		ID: int64(j.id), Owner: j.owner, Model: j.model, Command: j.cmd,
		State: j.state.String(), Res: j.res,
		Ops: j.ops, Flops: j.flops, Cycles: j.cycles,
	}
	if s.epoch != nil {
		rec.Epoch = s.epoch()
	}
	if j.err != nil {
		rec.Err = j.err.Error()
	}
	v := reflect.ValueOf(rec).Elem()
	whole = true
	raw, err = recordPlan.Append(s.recBuf[:0], v)
	if err != nil && rec.Res != nil {
		// A result JSON cannot carry (a NaN field) is left out of the
		// record; it must not cost the job its record.
		rec.Res, whole = nil, false
		raw, err = recordPlan.Append(s.recBuf[:0], v)
	}
	*rec = journalRecord{}
	if err == nil {
		s.recBuf = raw
	}
	return raw, whole, err
}

// persistLocked writes a job's current record through the journal.
// Best effort by design: a journal write failure must not fail the job
// it records (the job itself already ran) and must never take down the
// scheduler — the failure is counted, logged, and the job carries on;
// the record simply stays at its previous state and recovery treats it
// accordingly.  No-op when no journal is attached.  It reports whether
// the journal now holds the whole record, the job's result included.
func (s *Scheduler) persistLocked(j *job) (filed bool) {
	if s.journal == nil {
		return false
	}
	raw, whole, err := s.recordLocked(j)
	if err == nil {
		err = s.journal.Put(store.JobKey(int64(j.id)), raw)
	}
	if err != nil {
		s.journalWriteFailedLocked(j.id, err)
	}
	return err == nil && whole
}

// journalWriteFailedLocked is the log-mark-continue half of the journal
// contract.  The log rate-limits itself: a degraded store fails every
// write, and one line per job beats one line per write.
func (s *Scheduler) journalWriteFailedLocked(id JobID, err error) {
	s.journalErrs++
	s.mJournalErrs.Inc()
	if s.journalErrs <= 3 || s.journalErrs%100 == 0 {
		s.logfLocked("job: journal write for %s failed (%d so far, continuing): %v", id, s.journalErrs, err)
	}
}

// jobFromRecord rebuilds an in-memory terminal job from its journal
// record, as decodeRecord read it.
func jobFromRecord(rec *journalRecord) (*job, error) {
	st, err := ParseState(rec.State)
	if err != nil {
		return nil, fmt.Errorf("job: journal record %d: %w", rec.ID, err)
	}
	if rec.cmdErr != nil {
		return nil, fmt.Errorf("job: journal record %d: %w", rec.ID, rec.cmdErr)
	}
	// Recovered records are terminal by construction: finished, and with
	// nothing to run them.
	j := &job{
		id: JobID(rec.ID), owner: rec.Owner, model: rec.Model, cmd: rec.Command,
		state: st, res: rec.Res,
		ops: rec.Ops, flops: rec.Flops, cycles: rec.Cycles,
		done: finished,
	}
	if rec.Err != "" {
		j.err = errors.New(rec.Err)
	}
	return j, nil
}

// journalLookup reads one job straight from the journal — how a settled
// job is answered, and the fallback for ids retention has evicted from
// memory.  An id the journal does not hold (or no journal) is not
// found; a store that fails the read, or a record that does not decode,
// returns that error instead, since the job may well exist.  Callers
// must not hold s.mu (the store read can hit disk).
func (s *Scheduler) journalLookup(id JobID) (*job, error) {
	s.mu.Lock()
	st := s.journal
	s.mu.Unlock()
	if st == nil {
		return nil, notFound(id)
	}
	raw, err := st.Get(store.JobKey(int64(id)))
	if errors.Is(err, errs.ErrNotFound) {
		return nil, notFound(id)
	}
	if err != nil {
		return nil, fmt.Errorf("job: reading %s from the journal: %w", id, err)
	}
	var rec journalRecord
	if err := decodeRecord(raw, &rec); err != nil {
		return nil, fmt.Errorf("job: corrupt journal record of %s: %w", id, err)
	}
	return jobFromRecord(&rec)
}
