package main

import (
	"sync"
	"time"

	"github.com/seldel/seldel"
)

// erasure is where one requested deletion ended: the DeleteBelowRecord
// call that carried its tombstone, and the summary block of that
// record.
type erasure struct {
	requested      time.Time
	cutStart, done time.Time
	summary        uint64
}

// erasures tracks requested deletions until the store reports their
// tombstones durable.
type erasures struct {
	mu      sync.Mutex
	pending map[seldel.Ref]time.Time
	done    map[seldel.Ref]erasure
	lat     samples
}

func newErasures() *erasures {
	return &erasures{pending: map[seldel.Ref]time.Time{}, done: map[seldel.Ref]erasure{}}
}

// request records that target's deletion was requested at.
func (er *erasures) request(target seldel.Ref, at time.Time) {
	er.mu.Lock()
	er.pending[target] = at
	er.mu.Unlock()
}

// cancel forgets a request that never reached the chain (refused or
// failed before it was sealed).
func (er *erasures) cancel(target seldel.Ref) {
	er.mu.Lock()
	delete(er.pending, target)
	er.mu.Unlock()
}

// erased is the probeStore hook: every requested tombstone in rec is
// erased as of end.
func (er *erasures) erased(rec *seldel.ManifestRecord, start, end time.Time) {
	er.mu.Lock()
	defer er.mu.Unlock()
	for _, ts := range rec.Tombstones {
		at, ok := er.pending[ts.Target]
		if !ok {
			continue
		}
		delete(er.pending, ts.Target)
		er.done[ts.Target] = erasure{requested: at, cutStart: start, done: end, summary: rec.SummaryBlock}
		er.lat.addDur(end.Sub(at))
	}
}

// markErased records target as erased at the given time, for
// deployments without a store (the replicated workload). It reports
// whether target was still pending.
func (er *erasures) markErased(target seldel.Ref, at time.Time) bool {
	er.mu.Lock()
	defer er.mu.Unlock()
	req, ok := er.pending[target]
	if !ok {
		return false
	}
	delete(er.pending, target)
	er.done[target] = erasure{requested: req, done: at}
	er.lat.addDur(at.Sub(req))
	return true
}

func (er *erasures) pendingCount() int {
	er.mu.Lock()
	defer er.mu.Unlock()
	return len(er.pending)
}

func (er *erasures) pendingRefs() []seldel.Ref {
	er.mu.Lock()
	defer er.mu.Unlock()
	out := make([]seldel.Ref, 0, len(er.pending))
	for r := range er.pending {
		out = append(out, r)
	}
	return out
}

func (er *erasures) erasedRefs() map[seldel.Ref]erasure {
	er.mu.Lock()
	defer er.mu.Unlock()
	out := make(map[seldel.Ref]erasure, len(er.done))
	for r, e := range er.done {
		out[r] = e
	}
	return out
}
