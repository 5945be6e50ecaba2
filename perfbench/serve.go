package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/seldel/seldel"
)

// The serving workload's geometry and mix.
const (
	// serveRate is the fixed open-loop rate, below the knee measured on
	// a 2-core box (see README.md).
	serveRate = 200
	// Shares of the mix, in percent: submits, deletions, pages, proofs.
	shareSubmit, shareDelete, sharePage = 60, 15, 15
	servePageLimit                      = 64
	// serveVictims are erased while the store is pre-built; the proof
	// requests ask for them.
	serveVictims = 128
	// serveFillerBatch entries per untimed filler block while draining.
	serveFillerBatch = 4
)

type reqKind int

const (
	kindSubmit reqKind = iota
	kindDelete
	kindPage
	kindProve
)

var kindNames = [...]string{"submit", "delete", "page", "prove"}

// serveRequest is one pre-built request of the open-loop schedule.
type serveRequest struct {
	kind   reqKind
	path   string
	body   []byte
	entry  *seldel.Entry // submitted data entry
	target seldel.Ref    // deletion target
}

type serveInputs struct {
	p        *people
	opts     []seldel.Option
	prebuilt string
	reqs     []serveRequest
	victims  map[seldel.Ref]bool
	filler   []*seldel.Entry
}

func prepareServe(e *env) (any, error) {
	p, err := newPeople(e.seed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{p: p, victims: map[seldel.Ref]bool{},
		opts: []seldel.Option{seldel.WithSequenceLength(8), seldel.WithMaxBlocks(256)}}
	total := serveRate * e.seconds
	counts := [4]int{total * shareSubmit / 100, total * shareDelete / 100, total * sharePage / 100}
	counts[kindProve] = total - counts[0] - counts[1] - counts[2]

	targets := p.dataEntries("serve-target", counts[kindDelete]+64)
	victims := p.dataEntries("serve-victim", serveVictims)
	in.filler = p.dataEntries("serve-filler", 4096)
	pre := p.dataEntries("serve-prebuilt-filler", 2048)
	in.prebuilt = e.dir("prebuilt")
	targetRefs, victimRefs, err := buildServeStore(in, targets, victims, pre)
	if err != nil {
		return nil, fmt.Errorf("pre-building serve store: %w", err)
	}
	for _, r := range victimRefs {
		in.victims[r] = true
	}

	kinds := make([]reqKind, 0, total)
	for k, n := range counts {
		for range n {
			kinds = append(kinds, reqKind(k))
		}
	}
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0x5e12e))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	submits := p.dataEntries("serve-load", counts[kindSubmit])
	order := rng.Perm(len(targetRefs))
	var si, di int
	for _, k := range kinds {
		r := serveRequest{kind: k}
		switch k {
		case kindSubmit:
			r.entry = submits[si]
			si++
			r.path = "/v1/submit?wait=1"
			r.body, err = submitBody(r.entry)
		case kindDelete:
			t := order[di]
			di++
			r.target = targetRefs[t]
			var d *seldel.Entry
			if d, err = p.deletion(targets[t].Owner, r.target); err == nil {
				r.path = "/v1/submit?wait=1"
				r.body, err = submitBody(d)
			}
		case kindPage:
			c := targetRefs[rng.IntN(len(targetRefs))]
			r.path = fmt.Sprintf("/v1/entries?after=%d/%d&limit=%d", c.Block, c.Entry, servePageLimit)
		case kindProve:
			v := victimRefs[rng.IntN(len(victimRefs))]
			r.path = fmt.Sprintf("/v1/prove-deleted?block=%d&entry=%d", v.Block, v.Entry)
		}
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

func submitBody(e *seldel.Entry) ([]byte, error) {
	return json.Marshal(seldel.SubmitRequest{Entries: []seldel.EntryJSON{seldel.NewEntryJSON(e)}})
}

// buildServeStore pre-builds the bounded chain: the deletion targets,
// then victims that are deleted and pushed past the Genesis marker by
// filler blocks, so proofs of their deletion exist before the run.
func buildServeStore(in *serveInputs, targets, victims, filler []*seldel.Entry) ([]seldel.Ref, []seldel.Ref, error) {
	seg, err := seldel.NewSegmentStore(in.prebuilt, seldel.SegmentOptions{})
	if err != nil {
		return nil, nil, err
	}
	defer seg.Close()
	ch, err := seldel.New(in.p.reg, append(in.opts, seldel.WithStore(seg))...)
	if err != nil {
		return nil, nil, err
	}
	defer ch.Close()
	ctx := context.Background()
	appendAll := func(entries []*seldel.Entry, per int) ([]seldel.Ref, error) {
		var refs []seldel.Ref
		for i := 0; i < len(entries); i += per {
			sealed, err := ch.SubmitWait(ctx, entries[i:min(i+per, len(entries))]...)
			if err != nil {
				return nil, err
			}
			for _, s := range sealed {
				refs = append(refs, s.Ref)
			}
		}
		return refs, nil
	}
	targetRefs, err := appendAll(targets, 32)
	if err != nil {
		return nil, nil, err
	}
	victimRefs, err := appendAll(victims, 32)
	if err != nil {
		return nil, nil, err
	}
	var dels []*seldel.Entry
	for i, r := range victimRefs {
		d, err := in.p.deletion(victims[i].Owner, r)
		if err != nil {
			return nil, nil, err
		}
		dels = append(dels, d)
	}
	if _, err := appendAll(dels, 32); err != nil {
		return nil, nil, err
	}
	for i := 0; ; i += 8 {
		if err := ch.CompactWait(ctx); err != nil {
			return nil, nil, err
		}
		if _, err := ch.ProveDeleted(victimRefs[len(victimRefs)-1]); err == nil {
			break
		}
		if i >= len(filler) {
			return nil, nil, fmt.Errorf("victims never erased")
		}
		if _, err := ch.SubmitWait(ctx, filler[i:min(i+8, len(filler))]...); err != nil {
			return nil, nil, err
		}
	}
	return targetRefs, victimRefs, nil
}

// serveHandle is a restored chain behind a listening server.
type serveHandle struct {
	chain *chainHandle
	srv   *seldel.Server
	hs    *http.Server
	url   string
	done  chan struct{}
}

func (h *serveHandle) close() {
	h.hs.Close()
	<-h.done
	h.srv.Close()
	h.chain.close()
}

// h2cClient speaks HTTP/2 over cleartext on one connection.
func h2cClient() *http.Client {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{
		Protocols:       p,
		MaxConnsPerHost: 1,
	}}
}

// serveCall is one request's client-side record.
type serveCall struct {
	due, fire, done time.Time
	ok              bool
}

func runServe(e *env, inAny any, tr *tracer) (*pass, error) {
	in := inAny.(*serveInputs)
	er := newErasures()
	h, setupSecs, err := restoreTimed(e, in.prebuilt, tr != nil,
		func(dir string) (*serveHandle, error) {
			ch, err := openChain(in.p.reg, dir, in.opts, er.erased)
			if err != nil {
				return nil, err
			}
			pb := newProbeBackend(ch.ch, tr)
			srv := seldel.NewServer(pb, seldel.ServerOptions{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				ch.close()
				return nil, err
			}
			hs := srv.HTTPServer(ln.Addr().String())
			hs.Handler = pb.handler(hs.Handler)
			h := &serveHandle{chain: ch, srv: srv, hs: hs, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
			go func() {
				defer close(h.done)
				_ = hs.Serve(ln)
			}()
			return h, nil
		},
		func(h *serveHandle) { h.close() })
	if err != nil {
		return nil, fmt.Errorf("serve setup: %w", err)
	}
	defer h.close()
	ch := h.chain.ch
	res := newResults()
	res.set("setup_s", "s", median(setupSecs), len(setupSecs))
	client := h2cClient()
	defer client.CloseIdleConnections()
	// Open the h2c connection before the clock starts.
	resp, err := client.Get(h.url + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	base := snapshotChain(ch, h.chain.seg)
	tomb0, err := tombstoneCount(ctx, ch)
	if err != nil {
		return nil, err
	}
	settle()
	h.chain.probe.arm(tr)
	smp := startSampler(ch, h.chain.seg, tr != nil)
	calls := make([]serveCall, len(in.reqs))
	var (
		lat, read, lag samples
		mu             sync.Mutex
		survivors      []chainOp
		dels           []deletionOp
		bad            []string
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	interval := time.Second / serveRate
	start := time.Now()
	sum := seldel.RunLoad(ctx, seldel.LoadOptions{
		Rate:     serveRate,
		Requests: len(in.reqs),
		Duration: e.duration(),
		Fire: func(ctx context.Context, i int) seldel.LoadClass {
			r := in.reqs[i]
			c := &calls[i]
			c.due, c.fire = start.Add(time.Duration(i)*interval), time.Now()
			lag.addDur(c.fire.Sub(c.due))
			if r.kind == kindDelete {
				er.request(r.target, c.due)
			}
			method := http.MethodGet
			var body io.Reader
			if r.body != nil {
				method, body = http.MethodPost, bytes.NewReader(r.body)
			}
			req, err := http.NewRequestWithContext(ctx, method, h.url+r.path, body)
			if err != nil {
				return seldel.LoadErrored
			}
			if tr != nil {
				req.Header.Set(opHeader, fmt.Sprint(i+1))
			}
			resp, err := client.Do(req)
			if err != nil {
				violate("%s: %v", kindNames[r.kind], err)
				return seldel.LoadErrored
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			c.done = time.Now()
			if resp.StatusCode == http.StatusTooManyRequests {
				if r.kind == kindDelete {
					er.cancel(r.target)
				}
				return seldel.LoadShed
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				violate("%s %s: status %d %s", kindNames[r.kind], r.path, resp.StatusCode, raw)
				return seldel.LoadErrored
			}
			if msg := checkServeReply(r, raw, c.fire, er, in.victims); msg != "" {
				violate("%s %s: %s", kindNames[r.kind], r.path, msg)
				return seldel.LoadErrored
			}
			keep := r.kind == kindSubmit && i%survivorStride == 0
			if keep || (r.kind == kindDelete && tr != nil) {
				var sr seldel.SubmitResponse
				if json.Unmarshal(raw, &sr) == nil && len(sr.Sealed) == 1 {
					s := sr.Sealed[0]
					mu.Lock()
					if keep {
						survivors = append(survivors, chainOp{entry: r.entry,
							sealed: seldel.Sealed{Ref: seldel.Ref{Block: s.Ref.Block, Entry: s.Ref.Entry}}})
					} else {
						dels = append(dels, deletionOp{op: uint64(i + 1), requested: c.due, block: s.Block, target: r.target})
					}
					mu.Unlock()
				}
			}
			c.ok = true
			lat.addDur(c.done.Sub(c.due))
			if r.kind == kindPage || r.kind == kindProve {
				read.addDur(c.done.Sub(c.due))
			}
			return seldel.LoadOK
		},
	})
	phase := snapshotChain(ch, h.chain.seg)
	space, queueFrac, busy := smp.stop()

	failed := sum.Errors + sum.Sheds + sum.Dropped
	p := &pass{res: res, attempted: sum.Scheduled, failed: failed}
	for _, msg := range bad {
		p.violate("serve-mixed: %s", msg)
	}
	res.set("ops_per_s", "ops/s", float64(sum.OKs)/sum.WallSec, int(sum.OKs))
	res.setQuantiles("latency", "ms", &lat, 50, 95, 99)
	res.set("error_rate", "fraction", ratio(float64(failed), float64(sum.Scheduled)), int(sum.Scheduled))
	res.set("space_amp", "ratio", mean(space), len(space))
	res.setQuantiles("read", "ms", &read)
	if err := drainErasures(ctx, ch, er, in.filler, serveFillerBatch); err != nil {
		p.violate("serve-mixed: %v", err)
	}
	res.setQuantiles("erasure", "ms", &er.lat)
	if err := ch.CompactWait(ctx); err != nil {
		p.violate("serve-mixed: compaction: %v", err)
	}
	checkChain(p, ctx, ch, er, survivors, tomb0, base.stats.ForgottenEntries)
	if tr != nil {
		lagSorted := lag.sorted()
		if v, ok := quantile(lagSorted, 0.99); ok {
			res.set("loadgen.lag_ms_p99", "ms", v, len(lagSorted))
		}
		res.set("serve.shed_fraction", "fraction", sum.ShedFraction(), int(sum.Scheduled))
		res.set("mempool.queue_fraction_mean", "fraction", mean(queueFrac), len(queueFrac))
		res.set("verify.busy_share", "fraction", mean(busy), len(busy))
		res.set("verify.sig_us", "us", sigMicros(in.p.reg, in.filler[:256]), 256)
		lt := &layerTrace{res: res, tr: tr, probe: h.chain.probe, base: base, phase: phase, start: start, wall: sum.Wall}
		lt.counts()
		if err := serveTrace(lt, calls, dels, er.erasedRefs()); err != nil {
			p.violate("serve-mixed trace: %v", err)
		}
	}
	return p, nil
}

// checkServeReply checks one successful response body: submits sealed
// without error, deletions approved, no page returns an entry erased
// before the page was requested, and deletion proofs verify.
func checkServeReply(r serveRequest, raw []byte, fired time.Time, er *erasures, victims map[seldel.Ref]bool) string {
	switch r.kind {
	case kindSubmit, kindDelete:
		var sr seldel.SubmitResponse
		if err := json.Unmarshal(raw, &sr); err != nil || len(sr.Sealed) != 1 {
			return fmt.Sprintf("bad submit reply %s", raw)
		}
		if s := sr.Sealed[0]; s.Error != "" {
			return s.Error
		} else if r.kind == kindDelete && s.Mark != "approved" {
			return "deletion " + s.Mark
		}
	case kindPage:
		var page seldel.EntryPage
		if err := json.Unmarshal(raw, &page); err != nil {
			return err.Error()
		}
		erased := er.erasedRefs()
		for _, it := range page.Entries {
			ref := seldel.Ref{Block: it.Ref.Block, Entry: it.Ref.Entry}
			if victims[ref] {
				return fmt.Sprintf("page returned erased %v", ref)
			}
			if x, ok := erased[ref]; ok && x.done.Before(fired) {
				return fmt.Sprintf("page returned %v, erased before the request", ref)
			}
		}
	case kindProve:
		var body struct {
			Proof *seldel.DeletedProof `json:"proof"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Proof == nil {
			return fmt.Sprintf("bad proof reply: %v", err)
		}
		if err := body.Proof.Verify(); err != nil {
			return fmt.Sprintf("proof does not verify: %v", err)
		}
	}
	return ""
}

// serveTrace splits each request's scheduled-time latency into the
// generator's lag, the Backend calls its handler made, the wait for
// durability, and the server's own time (the remainder); then splits
// each deletion's erasure, its first stage running from the scheduled
// send until the handler's Submit returned.
func serveTrace(lt *layerTrace, calls []serveCall, dels []deletionOp, erased map[seldel.Ref]erasure) error {
	res, tr := lt.res, lt.tr
	byOp := map[uint64][]span{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.op != 0 {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	tr.mu.Unlock()
	stages := []string{"loadgen.lag", "serve.self", "serve.backend_submit", "mempool.to_durable",
		"serve.page", "serve.prove", "serve.backend_other"}
	st := newStageTable("request", stages...)
	perStage := map[string]*samples{}
	for _, s := range stages {
		perStage[s] = &samples{}
	}
	for i, c := range calls {
		if !c.ok {
			continue
		}
		op := uint64(i + 1)
		durs := make([]time.Duration, len(stages))
		durs[0] = c.fire.Sub(c.due)
		var inner time.Duration
		ordered := true
		for _, s := range byOp[op] {
			// A span reaching outside the request (the receipt watcher
			// stamping after the response was read) is clipped to it.
			lo, hi := s.start, s.end
			if lo.Before(c.fire) {
				lo, ordered = c.fire, false
			}
			if hi.After(c.done) {
				hi, ordered = c.done, false
			}
			d := max(hi.Sub(lo), 0)
			for k, name := range stages {
				if name == s.name {
					durs[k] += d
					inner += d
					perStage[name].addDur(d)
				}
			}
		}
		durs[1] = c.done.Sub(c.fire) - inner
		if durs[1] < 0 {
			durs[1], ordered = 0, false
		}
		perStage["serve.self"].addDur(durs[1])
		st.addDurations(tr, op, c.due, c.done, durs, ordered)
	}
	res.setQuantiles("serve.self_ms", "ms", perStage["serve.self"])
	res.setQuantiles("serve.backend_submit_ms", "ms", perStage["serve.backend_submit"])
	res.setQuantiles("serve.page_ms", "ms", perStage["serve.page"])
	res.setQuantiles("serve.prove_ms", "ms", perStage["serve.prove"])
	for i := range dels {
		for _, s := range byOp[dels[i].op] {
			if s.name == "serve.backend_submit" {
				dels[i].submitted = s.end
			}
		}
	}
	return reportStages(res, st, lt.erasureStages("serve.to_submit", dels, erased))
}
