package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/seldel/seldel"
)

// The probes must keep every optional capability the library probes
// stores and backends for; losing one would silently change what is
// measured (no manifest, no group commit, no proofs).
var (
	_ interface{ Sync() error } = (*probeStore)(nil)
	_ interface {
		DeleteBelowRecord(uint64, *seldel.ManifestRecord) error
	} = (*probeStore)(nil)
	_ interface {
		DeletionRecords() ([]seldel.ManifestRecord, error)
	} = (*probeStore)(nil)
	_ interface{ Marker() (uint64, error) } = (*probeStore)(nil)
	_ seldel.Store                          = (*probeStore)(nil)
	_ seldel.ServerBackend                  = (*probeBackend)(nil)
	_ deletedProver                         = (*probeBackend)(nil)
)

// outcome is what one scripted run left in its store.
type outcome struct {
	records []seldel.ManifestRecord
	fsyncs  uint64
	marker  uint64
	erased  int
	victim  seldel.Ref
}

// scripted appends data one entry per block, deletes every third entry
// once sealed, and returns what reached the store. mode is "raw" (the
// segment store itself), "probe" or "traced" (the probe, armed).
func scripted(t *testing.T, mode string) (outcome, *seldel.Chain) {
	t.Helper()
	p, err := newPeople(7)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := seldel.NewSegmentStore(t.TempDir(), seldel.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	er := newErasures()
	var st seldel.Store = seg
	if mode != "raw" {
		probe := newProbeStore(seg)
		probe.onErase = er.erased
		if mode == "traced" {
			probe.arm(newTracer())
		}
		st = probe
	}
	ch, err := seldel.New(p.reg, seldel.WithSequenceLength(3), seldel.WithMaxBlocks(6),
		seldel.WithStore(st), seldel.WithDurability(seldel.DurabilityGroup, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })
	ctx := context.Background()
	var out outcome
	for i, e := range p.dataEntries("fidelity", 40) {
		sealed, err := ch.SubmitWait(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			continue
		}
		d, err := p.deletion(e.Owner, sealed[0].Ref)
		if err != nil {
			t.Fatal(err)
		}
		er.request(sealed[0].Ref, time.Now())
		if _, err := ch.SubmitWait(ctx, d); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			out.victim = sealed[0].Ref
		}
	}
	if err := ch.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	if out.records, err = seg.DeletionRecords(); err != nil {
		t.Fatal(err)
	}
	if out.marker, err = seg.Marker(); err != nil {
		t.Fatal(err)
	}
	out.fsyncs = seg.FsyncCount()
	out.erased = len(er.erasedRefs())
	return out, ch
}

func TestProbeStoreWritesWhatTheStoreWrites(t *testing.T) {
	raw, _ := scripted(t, "raw")
	if len(raw.records) == 0 {
		t.Fatal("script produced no deletion records; it exercises nothing")
	}
	tombstones := 0
	for _, r := range raw.records {
		tombstones += len(r.Tombstones)
	}
	for _, mode := range []string{"probe", "traced"} {
		got, _ := scripted(t, mode)
		if !reflect.DeepEqual(got.records, raw.records) {
			t.Errorf("%s: manifest records differ from the unwrapped store's", mode)
		}
		if got.fsyncs != raw.fsyncs {
			t.Errorf("%s: %d fsyncs, unwrapped store %d", mode, got.fsyncs, raw.fsyncs)
		}
		if got.marker != raw.marker {
			t.Errorf("%s: marker %d, unwrapped store %d", mode, got.marker, raw.marker)
		}
		if got.erased != tombstones {
			t.Errorf("%s: stamped %d erasures for %d tombstones", mode, got.erased, tombstones)
		}
	}
}

func TestProbeBackendServesDeletionProofs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		out, ch := scripted(t, "probe")
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		pb := newProbeBackend(ch, tr)
		srv := seldel.NewServer(pb, seldel.ServerOptions{})
		hs := httptest.NewServer(pb.handler(srv.Handler()))
		resp, err := http.Get(fmt.Sprintf("%s/v1/prove-deleted?block=%d&entry=%d", hs.URL, out.victim.Block, out.victim.Entry))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		hs.Close()
		srv.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traced=%v: prove-deleted through the probe answered %d", traced, resp.StatusCode)
		}
	}
}
