package cluster

import (
	"encoding/json"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
)

// Completion watchers. The heartbeat keeps liveness; it does not decide
// when a job is done. Every non-terminal placement on a live node has
// one watcher goroutine that long-polls GET /jobs/{remote}?wait= on the
// owner, so the router learns the terminal state the moment the node's
// Job.Done() closes. A watcher exits when its placement stops being the
// job's current one (migration, orphaning, a peer's newer placement),
// when the job turns terminal, or on a network error; the heartbeat
// starts a watcher for any placement left without one, which also
// covers jobs re-tracked by recovery or adopted from a peer. Close and
// Kill cancel every watcher and wait for it before they touch the
// store.

// placement names one (node, remote job ID) pair a watcher follows.
type placement struct{ node, remote string }

// ensureWatchLocked starts fj's watcher when its current placement
// needs one and has none: a non-terminal job on a live node, or a
// terminal job recovered from the journal that still lacks the node's
// final view (a single GET backfills it; a failed one is not retried).
func (r *Router) ensureWatchLocked(fj *fleetJob) {
	p := placement{fj.node, fj.remoteID}
	if r.closing || fj.orphaned || p.remote == "" || fj.watched == p {
		return
	}
	if fj.terminal && fj.view.ID != "" {
		return
	}
	m := r.registry.get(fj.node)
	if m == nil || m.state == NodeDead {
		return
	}
	fj.watched = p
	r.watching++
	r.watchers.Add(1)
	go r.watch(fj.id, p, m.addr)
}

// watchAllLocked gives every tracked placement that lacks one a watcher.
func (r *Router) watchAllLocked() {
	for _, fj := range r.jobs {
		r.ensureWatchLocked(fj)
	}
}

// watch long-polls one placement until it stops being current, the job
// turns terminal, or a GET fails. The wait stays under the client
// timeout (ProbeTimeout), so a quiet job costs one request per half
// probe timeout, not a request per heartbeat.
func (r *Router) watch(id string, p placement, addr string) {
	defer r.watchers.Done()
	url := addr + "/jobs/" + p.remote + "?wait=" + (r.cfg.ProbeTimeout / 2).String()
	for {
		data := r.httpGet(r.watchCtx, url)
		var v farm.JobView
		ok := data != nil && json.Unmarshal(data, &v) == nil
		r.mu.Lock()
		fj := r.jobs[id]
		current := fj != nil && !fj.orphaned && fj.node == p.node && fj.remoteID == p.remote
		if current && ok {
			r.applyViewLocked(fj, v, time.Now())
		}
		if !current || !ok || fj.terminal {
			if current && !fj.terminal {
				fj.watched = placement{} // the next heartbeat starts a fresh one
			}
			r.watching--
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
	}
}

// applyViewLocked folds the owner's view of fj's current placement into
// the router. A terminal job's view is never replaced by a non-terminal
// one: a heartbeat list taken before a watcher's answer can arrive after
// it, and a waiter must not be sent back to sleep on a finished job.
func (r *Router) applyViewLocked(fj *fleetJob, v farm.JobView, now time.Time) {
	if fj.terminal && !v.Status.Terminal() {
		return
	}
	fj.view = v
	if v.Status.Terminal() {
		r.finishLocked(fj, now)
	}
}

// finishLocked is a fleet job's terminal transition, shared by the
// watcher and the heartbeat. Guarded by fj.terminal, it releases the
// owner's load, journals the finish, drops the persisted checkpoint,
// records the trace instant and the end-to-end latency, and wakes
// WaitDone, each exactly once.
func (r *Router) finishLocked(fj *fleetJob, now time.Time) {
	if fj.terminal {
		return
	}
	fj.terminal = true
	if m := r.registry.get(fj.node); m != nil {
		m.load--
	}
	fj.rev++
	fj.seq = r.bumpSeqLocked()
	r.journalLocked(durable.Record{
		Type: durable.RecFinish, Job: fj.id, Status: string(fj.view.Status),
	})
	if r.store != nil {
		// A finished job's checkpoint is dead weight: drop it so the data
		// dir tracks live state only.
		r.store.RemoveCheckpoint(fj.id)
	}
	fj.trace.Instant("done", "status", string(fj.view.Status), "node", fj.node)
	r.obs.e2e.Observe(now.Sub(fj.created))
	r.notifyLocked()
}

// notifyLocked wakes every WaitDone by closing the current changed
// channel and installing a fresh one. A waiter reads r.changed under
// r.mu together with the job's state, so no transition slips between
// its check and its sleep.
func (r *Router) notifyLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// stopLoops stops the heartbeat and every watcher and waits for them.
// Once it returns nothing appends to the journal, so Close can compact
// and freeze it and Kill can abandon it.
func (r *Router) stopLoops() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.stopped
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	r.stopWatch()
	r.watchers.Wait()
}
