package main

import (
	"context"
	"iter"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel"
)

// putStamp is one PutBlock call seen by a traced probeStore.
type putStamp struct {
	start, end time.Time
	carried    int
	summary    bool
	// grew is how much the store's size grew with this block.
	grew int64
}

// cutStamp is one DeleteBelowRecord call: its interval, how many
// tombstones its record made durable, and the bytes it freed on disk.
type cutStamp struct {
	start, end time.Time
	tombstones int
	reclaimed  int64
}

// probeStore is the Store the benchmark hands to seldel.WithStore. It
// passes every call, and every optional capability the library probes
// for (Sync, DeleteBelowRecord, DeletionRecords, Marker), through to a
// segment store. Untraced, it only stamps each tombstone after
// DeleteBelowRecord returns, which the erasure latency needs; once
// armed for a traced pass it also times PutBlock, Sync and
// DeleteBelowRecord.
type probeStore struct {
	seg     *seldel.SegmentStore
	onErase func(rec *seldel.ManifestRecord, start, end time.Time)

	tr     *tracer
	traced atomic.Bool

	mu       sync.Mutex
	puts     map[uint64]putStamp
	cuts     []cutStamp
	lastSize int64
}

func newProbeStore(seg *seldel.SegmentStore) *probeStore {
	return &probeStore{seg: seg, puts: map[uint64]putStamp{}}
}

// arm starts timing calls into tr.
func (p *probeStore) arm(tr *tracer) {
	if tr == nil {
		return
	}
	size, _ := p.seg.SizeBytes()
	p.mu.Lock()
	p.tr, p.lastSize = tr, size
	p.mu.Unlock()
	p.traced.Store(true)
}

// PutBlock implements seldel.Store.
func (p *probeStore) PutBlock(b *seldel.Block) error {
	if !p.traced.Load() {
		return p.seg.PutBlock(b)
	}
	start := time.Now()
	err := p.seg.PutBlock(b)
	end := time.Now()
	size, _ := p.seg.SizeBytes()
	p.mu.Lock()
	p.puts[b.Header.Number] = putStamp{start: start, end: end, carried: len(b.Carried),
		summary: b.IsSummary(), grew: size - p.lastSize}
	p.lastSize = size
	p.mu.Unlock()
	p.tr.add("store.put", 0, 0, start, end)
	return err
}

// Sync passes the group-commit durability point through.
func (p *probeStore) Sync() error {
	if !p.traced.Load() {
		return p.seg.Sync()
	}
	start := time.Now()
	err := p.seg.Sync()
	p.tr.add("store.sync", 0, 0, start, time.Now())
	return err
}

// DeleteBelowRecord passes the manifest write and marker shift through
// and stamps the erasure of every tombstone in rec.
func (p *probeStore) DeleteBelowRecord(marker uint64, rec *seldel.ManifestRecord) error {
	traced := p.traced.Load()
	var before int64
	if traced {
		before, _ = p.seg.SizeBytes()
	}
	start := time.Now()
	err := p.seg.DeleteBelowRecord(marker, rec)
	end := time.Now()
	if err != nil {
		return err
	}
	if p.onErase != nil {
		p.onErase(rec, start, end)
	}
	if traced {
		after, _ := p.seg.SizeBytes()
		p.mu.Lock()
		p.cuts = append(p.cuts, cutStamp{start: start, end: end,
			tombstones: len(rec.Tombstones), reclaimed: before - after})
		p.lastSize = after
		p.mu.Unlock()
		p.tr.add("manifest.cut", 0, 0, start, end)
	}
	return nil
}

// DeletionRecords passes the manifest replay on restore through.
func (p *probeStore) DeletionRecords() ([]seldel.ManifestRecord, error) {
	return p.seg.DeletionRecords()
}

// Marker passes the persisted Genesis marker through.
func (p *probeStore) Marker() (uint64, error) { return p.seg.Marker() }

// GetBlock implements seldel.Store.
func (p *probeStore) GetBlock(num uint64) (*seldel.Block, error) { return p.seg.GetBlock(num) }

// DeleteBelow implements seldel.Store.
func (p *probeStore) DeleteBelow(marker uint64) error { return p.seg.DeleteBelow(marker) }

// Range implements seldel.Store.
func (p *probeStore) Range() (uint64, uint64, bool, error) { return p.seg.Range() }

// LoadAll implements seldel.Store.
func (p *probeStore) LoadAll() ([]*seldel.Block, error) { return p.seg.LoadAll() }

// Stream implements seldel.Store.
func (p *probeStore) Stream() iter.Seq2[*seldel.Block, error] { return p.seg.Stream() }

// SizeBytes implements seldel.Store.
func (p *probeStore) SizeBytes() (int64, error) { return p.seg.SizeBytes() }

// Close implements seldel.Store.
func (p *probeStore) Close() error { return p.seg.Close() }

// put returns the stamp of block num's PutBlock.
func (p *probeStore) put(num uint64) (putStamp, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.puts[num]
	return s, ok
}

// deletedProver is the optional proof surface the server probes its
// backend for.
type deletedProver interface {
	ProveDeleted(ref seldel.Ref) (*seldel.DeletedProof, error)
}

// opHeader carries a traced request's operation id to the server.
const opHeader = "X-Perfbench-Op"

// probeBackend is the serve.Backend the benchmark hands to
// seldel.NewServer. It passes every call through to a chain, including
// the optional ProveDeleted surface. In a traced pass it times each
// call and ties it to the HTTP request whose handler made it.
type probeBackend struct {
	b      seldel.ServerBackend
	prover deletedProver
	tr     *tracer
	// ops maps a handler goroutine to the operation it serves.
	ops sync.Map
}

func newProbeBackend(c *seldel.Chain, tr *tracer) *probeBackend {
	return &probeBackend{b: c, prover: c, tr: tr}
}

// op returns the operation the calling handler goroutine serves.
func (pb *probeBackend) op() uint64 {
	v, ok := pb.ops.Load(goid())
	if !ok {
		return 0
	}
	return v.(uint64)
}

func (pb *probeBackend) record(name string, start time.Time) {
	if op := pb.op(); op != 0 {
		pb.tr.add(name, op, 0, start, time.Now())
	}
}

// Submit implements seldel.ServerBackend. Traced, it also stamps when
// each receipt resolves, so the wait for durability is not counted as
// the server's own time.
func (pb *probeBackend) Submit(ctx context.Context, entries ...*seldel.Entry) ([]seldel.Receipt, error) {
	if pb.tr == nil {
		return pb.b.Submit(ctx, entries...)
	}
	start := time.Now()
	rs, err := pb.b.Submit(ctx, entries...)
	end := time.Now()
	op := pb.op()
	if op == 0 {
		return rs, err
	}
	pb.tr.add("serve.backend_submit", op, 0, start, end)
	if err == nil {
		go func() {
			for _, r := range rs {
				<-r.Done()
			}
			pb.tr.add("mempool.to_durable", op, 0, end, time.Now())
		}()
	}
	return rs, err
}

// SubmitWait implements seldel.ServerBackend.
func (pb *probeBackend) SubmitWait(ctx context.Context, entries ...*seldel.Entry) ([]seldel.Sealed, error) {
	return pb.b.SubmitWait(ctx, entries...)
}

// EntriesSeq implements seldel.ServerBackend; traced, the iteration is
// timed as the page read.
func (pb *probeBackend) EntriesSeq() iter.Seq2[seldel.Ref, *seldel.Entry] {
	if pb.tr == nil {
		return pb.b.EntriesSeq()
	}
	seq := pb.b.EntriesSeq()
	return func(yield func(seldel.Ref, *seldel.Entry) bool) {
		start := time.Now()
		for ref, e := range seq {
			if !yield(ref, e) {
				break
			}
		}
		pb.record("serve.page", start)
	}
}

// Tombstones implements seldel.ServerBackend.
func (pb *probeBackend) Tombstones(ctx context.Context) ([]seldel.ManifestRecord, error) {
	return pb.b.Tombstones(ctx)
}

// Stats implements seldel.ServerBackend.
func (pb *probeBackend) Stats() seldel.Stats {
	if pb.tr == nil {
		return pb.b.Stats()
	}
	start := time.Now()
	s := pb.b.Stats()
	pb.record("serve.backend_other", start)
	return s
}

// PipelineStats implements seldel.ServerBackend.
func (pb *probeBackend) PipelineStats() seldel.PipelineStats {
	if pb.tr == nil {
		return pb.b.PipelineStats()
	}
	start := time.Now()
	s := pb.b.PipelineStats()
	pb.record("serve.backend_other", start)
	return s
}

// ProveDeleted passes the deletion-proof surface through.
func (pb *probeBackend) ProveDeleted(ref seldel.Ref) (*seldel.DeletedProof, error) {
	if pb.tr == nil {
		return pb.prover.ProveDeleted(ref)
	}
	start := time.Now()
	p, err := pb.prover.ProveDeleted(ref)
	pb.record("serve.prove", start)
	return p, err
}

// handler wraps the server's handler. Traced, it registers the
// handler goroutine's operation (from opHeader) for the Backend calls
// it makes.
func (pb *probeBackend) handler(next http.Handler) http.Handler {
	if pb.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		g := goid()
		pb.ops.Store(g, op)
		defer pb.ops.Delete(g)
		next.ServeHTTP(w, r)
	})
}
