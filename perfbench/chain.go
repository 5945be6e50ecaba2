package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel"
)

// Geometry and sizes of the two single-chain workloads.
const (
	ingestPrebuilt = 60000
	erasePrebuilt  = 2048
	// chainProducers is the producer goroutine count (the box's nproc).
	chainProducers = 2
	// loadPerSecond sizes the pre-signed input pool: a producer that
	// exhausts it ends the measured phase early and says so.
	ingestLoadPerSecond = 24000
	eraseLoadPerSecond  = 8000
	// fillerEntries are appended untimed after the measured phase until
	// every requested deletion is erased.
	fillerEntries = 8192
	fillerBatch   = 16
)

// chainInputs are a single-chain workload's generated inputs.
type chainInputs struct {
	name     string
	p        *people
	opts     []seldel.Option
	prebuilt string
	load     []*seldel.Entry
	filler   []*seldel.Entry
	inflight int
	erase    bool
}

func prepareIngest(e *env) (any, error) {
	return prepareChain(e, &chainInputs{name: "ingest", inflight: 128,
		opts: []seldel.Option{seldel.WithSequenceLength(8)}}, ingestPrebuilt, 512, ingestLoadPerSecond)
}

func prepareErase(e *env) (any, error) {
	return prepareChain(e, &chainInputs{name: "erase", inflight: 32, erase: true,
		opts: []seldel.Option{seldel.WithSequenceLength(6), seldel.WithMaxBlocks(24)}}, erasePrebuilt, 64, eraseLoadPerSecond)
}

// prepareChain signs the inputs and builds the pre-built store the
// workload restores from; none of it is timed.
func prepareChain(e *env, in *chainInputs, prebuilt, perBlock, perSecond int) (*chainInputs, error) {
	p, err := newPeople(e.seed)
	if err != nil {
		return nil, err
	}
	in.p = p
	pre := p.dataEntries(in.name+"-pre", prebuilt)
	in.load = p.dataEntries(in.name+"-load", perSecond*e.seconds)
	if in.erase {
		in.filler = p.dataEntries(in.name+"-filler", fillerEntries)
	}
	in.prebuilt = e.dir("prebuilt")
	seg, err := seldel.NewSegmentStore(in.prebuilt, seldel.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	ch, err := seldel.New(p.reg, append(in.opts, seldel.WithStore(seg))...)
	if err != nil {
		return nil, err
	}
	defer ch.Close()
	ctx := context.Background()
	for i := 0; i < len(pre); i += perBlock {
		if _, err := ch.SubmitWait(ctx, pre[i:min(i+perBlock, len(pre))]...); err != nil {
			return nil, fmt.Errorf("pre-building %s store: %w", in.name, err)
		}
	}
	return in, nil
}

// chainHandle is one restored chain with its store and verifier.
type chainHandle struct {
	seg    *seldel.SegmentStore
	probe  *probeStore
	ch     *seldel.Chain
	verify *seldel.Verifier
	dir    string
}

func (h *chainHandle) close() error {
	err := h.ch.Close()
	h.verify.Close()
	if cerr := h.seg.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(h.dir)
	return err
}

// openChain restores a chain from the copied store in dir through the
// public constructors, the way a restarted process would.
func openChain(reg *seldel.Registry, dir string, opts []seldel.Option, onErase func(*seldel.ManifestRecord, time.Time, time.Time)) (*chainHandle, error) {
	seg, err := seldel.NewSegmentStore(dir, seldel.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	probe := newProbeStore(seg)
	probe.onErase = onErase
	v := seldel.NewVerifier(0, 0)
	all := append(append([]seldel.Option(nil), opts...),
		seldel.WithStore(probe),
		seldel.WithDurability(seldel.DurabilityGroup, 0),
		seldel.WithVerifier(v))
	ch, err := seldel.New(reg, all...)
	if err != nil {
		v.Close()
		seg.Close()
		return nil, err
	}
	return &chainHandle{seg: seg, probe: probe, ch: ch, verify: v, dir: dir}, nil
}

// restoreTimed times open on fresh copies of the pre-built store (see
// timeSetup), returning the last handle and every set-up's duration;
// discard releases the others.
func restoreTimed[T any](e *env, prebuilt string, traced bool, open func(dir string) (T, error), discard func(T)) (T, []float64, error) {
	dirOf := func(rep int) string { return e.dir(fmt.Sprintf("traced%v-rep%d", traced, rep)) }
	return timeSetup(traced,
		func(rep int) error {
			os.RemoveAll(dirOf(rep))
			return copyDir(prebuilt, dirOf(rep))
		},
		func(rep int) (T, error) { return open(dirOf(rep)) },
		discard)
}

// chainOp is one measured Submit: its boundary stamps and where it
// sealed.
type chainOp struct {
	t0, t1, t2 time.Time
	sealed     seldel.Sealed
	entry      *seldel.Entry
	deletion   bool
}

// survivorStride keeps every n-th surviving data entry for the final
// read-back check.
const survivorStride = 25

// chainLoad is the shared state of one measured phase.
type chainLoad struct {
	in       *chainInputs
	ch       *seldel.Chain
	er       *erasures
	deadline time.Time
	traced   bool
	next     atomic.Int64 // next index into in.load

	mu        sync.Mutex
	ops       []chainOp
	survivors []chainOp
	lat       samples
	ok        int64
	attempted int64
	failed    int64
	exhausted bool
	errs      []string
}

func (l *chainLoad) fail(format string, args ...any) {
	l.mu.Lock()
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

type pendingOp struct {
	op      chainOp
	receipt seldel.Receipt
	// deleteAfter asks the completer to request this entry's deletion.
	deleteAfter bool
}

// target is a sealed entry whose owner is about to request its
// deletion.
type target struct {
	ref   seldel.Ref
	owner string
}

// produce keeps in.inflight single-entry Submits in flight until the
// deadline. In the erase workload every other sealed data entry is
// deleted by its owner once its receipt resolves; that request is
// signed here, since its target is only known once sealed.
func (l *chainLoad) produce(ctx context.Context) {
	sem := make(chan struct{}, l.in.inflight)
	pending := make(chan pendingOp, l.in.inflight)
	// A target is queued only after its receipt freed a slot, so queued
	// targets plus in-flight Submits never exceed inflight.
	toDelete := make(chan target, l.in.inflight)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		l.complete(ctx, pending, sem, toDelete)
	}()
	data := 0
	for time.Now().Before(l.deadline) {
		var e *seldel.Entry
		deletion := false
		select {
		case t := <-toDelete:
			d, err := l.in.p.deletion(t.owner, t.ref)
			if err != nil {
				l.fail("%v", err)
				continue
			}
			e, deletion = d, true
		default:
			i := int(l.next.Add(1) - 1)
			if i < len(l.in.load) {
				e = l.in.load[i]
				data++
			}
		}
		if e == nil {
			l.mu.Lock()
			l.exhausted = true
			l.mu.Unlock()
			break
		}
		sem <- struct{}{}
		t0 := time.Now()
		if deletion {
			l.er.request(e.Target, t0)
		}
		rs, err := l.ch.Submit(ctx, e)
		t1 := time.Now()
		l.mu.Lock()
		l.attempted++
		l.mu.Unlock()
		if err != nil {
			<-sem
			l.fail("submit: %v", err)
			continue
		}
		pending <- pendingOp{op: chainOp{t0: t0, t1: t1, entry: e, deletion: deletion},
			receipt: rs[0], deleteAfter: l.in.erase && !deletion && data%2 == 0}
	}
	close(pending)
	done.Wait()
}

// complete waits on receipts in submission order and records each
// operation's latency.
func (l *chainLoad) complete(ctx context.Context, pending <-chan pendingOp, sem <-chan struct{}, toDelete chan<- target) {
	kept := 0
	for p := range pending {
		s, err := p.receipt.Wait(ctx)
		t2 := time.Now()
		<-sem
		if err != nil {
			l.fail("receipt: %v", err)
			continue
		}
		if p.op.deletion && s.Mark.String() != "approved" {
			l.fail("deletion of %v resolved %s", p.op.entry.Target, s.Mark)
			continue
		}
		op := p.op
		op.t2, op.sealed = t2, s
		l.lat.addDur(t2.Sub(op.t0))
		l.mu.Lock()
		l.ok++
		if l.traced {
			l.ops = append(l.ops, op)
		}
		if !op.deletion && !p.deleteAfter {
			if kept++; kept%survivorStride == 0 {
				l.survivors = append(l.survivors, op)
			}
		}
		l.mu.Unlock()
		if p.deleteAfter && time.Now().Before(l.deadline) {
			toDelete <- target{ref: s.Ref, owner: op.entry.Owner}
		}
	}
}

// runChain is one pass of ingest or erase: restore the pre-built store
// (setup_s), drive the producers for the measured seconds, append
// untimed entries until every requested deletion is erased, then check
// the chain.
func runChain(e *env, inAny any, tr *tracer) (*pass, error) {
	in := inAny.(*chainInputs)
	er := newErasures()
	h, setupSecs, err := restoreTimed(e, in.prebuilt, tr != nil,
		func(dir string) (*chainHandle, error) { return openChain(in.p.reg, dir, in.opts, er.erased) },
		func(h *chainHandle) { h.close() })
	if err != nil {
		return nil, fmt.Errorf("restoring %s store: %w", in.name, err)
	}
	defer h.close()
	ch, seg := h.ch, h.seg
	res := newResults()
	res.set("setup_s", "s", median(setupSecs), len(setupSecs))

	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	base := snapshotChain(ch, seg)
	tomb0, err := tombstoneCount(ctx, ch)
	if err != nil {
		return nil, err
	}
	settle()
	h.probe.arm(tr)
	smp := startSampler(ch, seg, tr != nil)
	l := &chainLoad{in: in, ch: ch, er: er, traced: tr != nil}
	start := time.Now()
	l.deadline = start.Add(e.duration())
	var wg sync.WaitGroup
	for range chainProducers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.produce(ctx)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	phase := snapshotChain(ch, seg)
	spaceAmp, queueFrac, busy := smp.stop()

	p := &pass{res: res, attempted: l.attempted, failed: l.failed}
	for _, msg := range l.errs {
		p.violate("%s: %s", in.name, msg)
	}
	if l.exhausted {
		res.note("ops_per_s", "input pool exhausted before the deadline")
	}
	res.set("ops_per_s", "ops/s", float64(l.ok)/wall.Seconds(), int(l.ok))
	res.setQuantiles("latency", "ms", &l.lat, 50, 95, 99)
	res.set("error_rate", "fraction", ratio(float64(l.failed), float64(l.attempted)), int(l.attempted))
	res.set("space_amp", "ratio", mean(spaceAmp), len(spaceAmp))

	if in.erase {
		if err := drainErasures(ctx, ch, er, in.filler, fillerBatch); err != nil {
			p.violate("erase: %v", err)
		}
		res.setQuantiles("erasure", "ms", &er.lat)
	}
	if err := ch.CompactWait(ctx); err != nil {
		p.violate("%s: compaction: %v", in.name, err)
	}
	checkChain(p, ctx, ch, er, l.survivors, tomb0, base.stats.ForgottenEntries)

	if tr != nil {
		res.set("mempool.queue_fraction_mean", "fraction", mean(queueFrac), len(queueFrac))
		res.set("verify.busy_share", "fraction", mean(busy), len(busy))
		res.set("verify.sig_us", "us", sigMicros(in.p.reg, in.load[:256]), 256)
		lt := &layerTrace{res: res, tr: tr, probe: h.probe, base: base, phase: phase, start: start, wall: wall}
		lt.counts()
		tables := []*stageTable{lt.appendStages(l.ops)}
		if in.erase {
			tables = append(tables, lt.erasureStages("mempool.submit", deletionsOf(l.ops), er.erasedRefs()))
		}
		if err := reportStages(res, tables...); err != nil {
			p.violate("%s trace: %v", in.name, err)
		}
	}
	return p, nil
}

// chainSnapshot is the counters a phase is measured against.
type chainSnapshot struct {
	stats    seldel.Stats
	pipeline seldel.PipelineStats
	fsyncs   uint64
}

func snapshotChain(ch *seldel.Chain, seg *seldel.SegmentStore) chainSnapshot {
	return chainSnapshot{stats: ch.Stats(), pipeline: ch.PipelineStats(), fsyncs: seg.FsyncCount()}
}

func tombstoneCount(ctx context.Context, ch *seldel.Chain) (int, error) {
	recs, err := ch.Tombstones(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range recs {
		n += len(r.Tombstones)
	}
	return n, nil
}

// sampler polls gauges while a phase runs: space amplification once a
// second, and (traced) the intake-queue fill and verifier busy share
// every 10 ms.
type sampler struct {
	stopc                  chan struct{}
	done                   chan struct{}
	space, queue, busyness []float64
}

func startSampler(ch *seldel.Chain, seg *seldel.SegmentStore, traced bool) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		fast := time.NewTicker(10 * time.Millisecond)
		defer fast.Stop()
		slow := time.NewTicker(time.Second)
		defer slow.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-slow.C:
				size, err := seg.SizeBytes()
				live := ch.Stats().LiveEntries
				if err == nil && live > 0 {
					s.space = append(s.space, float64(size)/float64(live*payloadBytes))
				}
			case <-fast.C:
				if traced {
					ps := ch.PipelineStats()
					s.queue = append(s.queue, ps.QueueFraction())
					s.busyness = append(s.busyness, ps.Verify.Utilization)
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() (space, queue, busy []float64) {
	close(s.stopc)
	<-s.done
	return s.space, s.queue, s.busyness
}

// sigMicros times Pool.Entries on a fixed batch with a fresh pool that
// has no cache, and returns the median microseconds per signature.
func sigMicros(reg *seldel.Registry, batch []*seldel.Entry) float64 {
	var per []float64
	for range 5 {
		v := seldel.NewVerifier(0, -1)
		start := time.Now()
		err := v.Entries(reg, batch)
		d := time.Since(start)
		v.Close()
		if err == nil {
			per = append(per, us(d)/float64(len(batch)))
		}
	}
	return median(per)
}

// drainErasures appends untimed filler entries until every requested
// deletion is erased, so slow erasures still count.
func drainErasures(ctx context.Context, ch *seldel.Chain, er *erasures, filler []*seldel.Entry, batch int) error {
	for i := 0; er.pendingCount() > 0; i += batch {
		if err := ch.CompactWait(ctx); err != nil {
			return err
		}
		if er.pendingCount() == 0 {
			break
		}
		if i >= len(filler) {
			return fmt.Errorf("%d requested deletions never erased", er.pendingCount())
		}
		if _, err := ch.SubmitWait(ctx, filler[i:min(i+batch, len(filler))]...); err != nil {
			return fmt.Errorf("filler append: %w", err)
		}
	}
	return nil
}

// checkChain verifies the chain after a pass: integrity, every erased
// target gone and provably deleted, surviving entries intact, and one
// manifest tombstone per forgotten entry.
func checkChain(p *pass, ctx context.Context, ch *seldel.Chain, er *erasures, survivors []chainOp, tomb0 int, forgotten0 uint64) {
	if err := ch.VerifyIntegrity(); err != nil {
		p.violate("VerifyIntegrity: %v", err)
	}
	for ref := range er.erasedRefs() {
		if _, _, ok := ch.Lookup(ref); ok {
			p.violate("erased %v still resolves", ref)
			continue
		}
		proof, err := ch.ProveDeleted(ref)
		if err != nil {
			p.violate("ProveDeleted(%v): %v", ref, err)
			continue
		}
		if err := proof.Verify(); err != nil {
			p.violate("deletion proof of %v: %v", ref, err)
		}
	}
	for _, s := range survivors {
		got, _, ok := ch.Lookup(s.sealed.Ref)
		if !ok || !bytes.Equal(got.Payload, s.entry.Payload) {
			p.violate("surviving entry %v does not resolve to its bytes", s.sealed.Ref)
		}
	}
	tomb, err := tombstoneCount(ctx, ch)
	if err != nil {
		p.violate("Tombstones: %v", err)
		return
	}
	forgotten := ch.Stats().ForgottenEntries - forgotten0
	if uint64(tomb-tomb0) != forgotten {
		p.violate("%d new manifest tombstones but %d entries forgotten", tomb-tomb0, forgotten)
	}
}

// deletionsOf lists the deletion requests among traced operations,
// numbered like the append stages.
func deletionsOf(ops []chainOp) []deletionOp {
	var out []deletionOp
	for i, o := range ops {
		if o.deletion {
			out = append(out, deletionOp{op: uint64(i + 1), requested: o.t0, submitted: o.t1,
				block: o.sealed.Block, target: o.entry.Target})
		}
	}
	return out
}
