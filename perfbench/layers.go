package main

import (
	"time"

	"github.com/seldel/seldel"
)

// layerTrace derives the per-layer metrics of a traced pass over a
// restored chain from the probe's stamps and the counter snapshots taken
// around the measured phase.
type layerTrace struct {
	res         *results
	tr          *tracer
	probe       *probeStore
	base, phase chainSnapshot
	start       time.Time
	wall        time.Duration
}

// counts reports the store, mempool, verify, chain, compact and
// manifest metrics that need no per-operation stamps. Blocks written
// after the measured phase (the drain) are left out of the per-block
// ratios.
func (t *layerTrace) counts() {
	res := t.res
	end := t.start.Add(t.wall)
	var putUs, carried samples
	var blocks int
	var bytes int64
	t.probe.mu.Lock()
	for _, s := range t.probe.puts {
		if s.start.After(end) {
			continue
		}
		blocks++
		bytes += s.grew
		putUs.add(us(s.end.Sub(s.start)))
		if s.summary {
			carried.add(float64(s.carried))
		}
	}
	cuts := append([]cutStamp(nil), t.probe.cuts...)
	t.probe.mu.Unlock()
	res.setQuantiles("store.put_us", "us", &putUs)
	var syncMs samples
	for _, s := range t.tr.named("store.sync") {
		syncMs.addDur(s.end.Sub(s.start))
	}
	res.setQuantiles("store.sync_ms", "ms", &syncMs)
	res.set("store.fsyncs_per_block", "count", ratio(float64(t.phase.fsyncs-t.base.fsyncs), float64(blocks)), blocks)
	committed := t.phase.pipeline.Entries - t.base.pipeline.Entries
	batches := t.phase.pipeline.Batches - t.base.pipeline.Batches
	res.set("store.bytes_per_entry", "bytes", ratio(float64(bytes), float64(committed)), int(committed))
	res.set("mempool.entries_per_block", "count", ratio(float64(committed), float64(batches)), int(batches))
	vs0, vs1 := t.base.pipeline.Verify, t.phase.pipeline.Verify
	res.set("verify.sigchecks_per_entry", "count", ratio(float64(vs1.Verified-vs0.Verified), float64(committed)), int(committed))
	res.set("verify.cache_hits_per_entry", "count", ratio(float64(vs1.CacheHits-vs0.CacheHits), float64(committed)), int(committed))
	res.set("chain.blocks_per_s", "1/s", float64(blocks)/t.wall.Seconds(), blocks)
	res.set("chain.carried_per_summary", "count", mean(carried.sorted()), carried.len())
	if len(cuts) == 0 {
		return
	}
	var cutMs, tombs, reclaimed samples
	for _, c := range cuts {
		cutMs.addDur(c.end.Sub(c.start))
		tombs.add(float64(c.tombstones))
		reclaimed.add(float64(c.reclaimed))
	}
	res.setQuantiles("manifest.cut_ms", "ms", &cutMs)
	res.set("manifest.tombstones_per_record", "count", mean(tombs.sorted()), tombs.len())
	res.set("compact.bytes_reclaimed_per_cut", "bytes", mean(reclaimed.sorted()), reclaimed.len())
}

// appendStages splits every traced Submit into mempool.submit →
// mempool.to_seal → store.put → store.durable_wait.
func (t *layerTrace) appendStages(ops []chainOp) *stageTable {
	st := newStageTable("append", "mempool.submit", "mempool.to_seal", "store.put", "store.durable_wait")
	st.self["store.durable_wait"] = t.tr.named("store.sync")
	var submitUs, toSeal, durable samples
	for i, o := range ops {
		// o.t2 - o.t0 is the latency the pass recorded for this Submit.
		lat := o.t2.Sub(o.t0)
		ps, ok := t.probe.put(o.sealed.Block)
		if !ok {
			st.addOp(t.tr, uint64(i+1), []time.Time{o.t0, o.t1, {}, {}, o.t2}, lat)
			continue
		}
		submitUs.add(us(o.t1.Sub(o.t0)))
		toSeal.addDur(ps.start.Sub(o.t1))
		durable.addDur(o.t2.Sub(ps.end))
		st.addOp(t.tr, uint64(i+1), []time.Time{o.t0, o.t1, ps.start, ps.end, o.t2}, lat)
	}
	t.res.setQuantiles("mempool.submit_us", "us", &submitUs)
	t.res.setQuantiles("mempool.to_seal_ms", "ms", &toSeal)
	t.res.setQuantiles("store.durable_wait_ms", "ms", &durable)
	return st
}

// deletionOp is one deletion request as the erasure stages see it.
type deletionOp struct {
	op uint64
	// requested starts the erasure clock; submitted is when the call
	// that handed the request to the chain returned.
	requested, submitted time.Time
	// block is the block the request sealed in.
	block  uint64
	target seldel.Ref
}

// erasureStages splits every erased deletion request into first →
// chain.mark → chain.mark_to_summary → store.put_summary → compact.lag
// → manifest.cut, where first runs from the request to its submit
// returning.
func (t *layerTrace) erasureStages(first string, dels []deletionOp, erased map[seldel.Ref]erasure) *stageTable {
	st := newStageTable("erasure", first, "chain.mark", "chain.mark_to_summary",
		"store.put_summary", "compact.lag", "manifest.cut")
	var mark, toSummary, lag, blocks samples
	for _, d := range dels {
		x, ok := erased[d.target]
		if !ok {
			continue
		}
		// The erasure latency as the erasures tracker recorded it.
		lat := x.done.Sub(x.requested)
		pk, ok1 := t.probe.put(d.block)
		psum, ok2 := t.probe.put(x.summary)
		if !ok1 || !ok2 {
			st.addOp(t.tr, d.op, make([]time.Time, 7), lat)
			continue
		}
		mark.addDur(pk.start.Sub(d.requested))
		toSummary.addDur(psum.start.Sub(pk.start))
		lag.addDur(x.cutStart.Sub(psum.end))
		blocks.add(float64(x.summary - d.block))
		st.addOp(t.tr, d.op, []time.Time{d.requested, d.submitted, pk.start, psum.start, psum.end, x.cutStart, x.done}, lat)
	}
	t.res.setQuantiles("chain.mark_ms", "ms", &mark)
	t.res.setQuantiles("chain.mark_to_summary_ms", "ms", &toSummary)
	t.res.setQuantiles("compact.lag_ms", "ms", &lag)
	t.res.set("chain.blocks_mark_to_cut", "count", mean(blocks.sorted()), blocks.len())
	return st
}

// reportStages prints each stage table, records the worst
// reconciliation error, and returns the first failed check.
func reportStages(res *results, tables ...*stageTable) error {
	var worst float64
	var first error
	ops := 0
	for _, st := range tables {
		st.print()
		worst = max(worst, st.reconcileError())
		ops += st.ops
		if err := st.check(); err != nil && first == nil {
			first = err
		}
	}
	res.set("trace.stage_reconcile_error", "fraction", worst, ops)
	return first
}
