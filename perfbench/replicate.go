package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seldel/seldel"
	"github.com/seldel/seldel/internal/node"
)

// The replicated workload's deployment and load shape.
const (
	anchors = 4
	// repBatch entries go into every SubmitWait call; every
	// repDeleteEvery-th call of a producer also deletes an entry of its
	// previous call.
	repBatch       = 16
	repDeleteEvery = 4
	// repWarmCalls is the fixed warm-up prefix replayed during setup; it
	// fills the live window (MaxSequences × SequenceLength blocks).
	repWarmCalls = 24
	// repCallsPerSecond sizes the pre-signed input pool.
	repCallsPerSecond = 200
	repVoteRetry      = 500 * time.Microsecond
)

type replicateInputs struct {
	p      *people
	keys   []*seldel.KeyPair
	warm   []*seldel.Entry
	load   []*seldel.Entry
	filler []*seldel.Entry
}

func prepareReplicate(e *env) (any, error) {
	p, err := newPeople(e.seed)
	if err != nil {
		return nil, err
	}
	in := &replicateInputs{p: p}
	for i := range anchors {
		kp := seldel.DeterministicKey(fmt.Sprintf("anchor-%d", i), fmt.Sprintf("perfbench-%d", e.seed))
		if err := p.reg.RegisterKey(kp, seldel.RoleMaster); err != nil {
			return nil, err
		}
		in.keys = append(in.keys, kp)
	}
	in.warm = p.dataEntries("replicate-warm", repWarmCalls*repBatch)
	in.load = p.dataEntries("replicate-load", repCallsPerSecond*repBatch*e.seconds)
	in.filler = p.dataEntries("replicate-filler", 256*repBatch)
	return in, nil
}

// cluster is one assembled quorum.
type cluster struct {
	net      *seldel.Network
	nodes    []*seldel.Node
	chains   []*seldel.Chain
	verifies []*seldel.Verifier
	// watch sees every anchor's appends; installed before the warm-up.
	watch *clusterWatch
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.net.Close()
	for _, v := range c.verifies {
		v.Close()
	}
}

// clusterWatch is a chain listener on every anchor. On anchor 0 it
// stamps appends for the summary-vote gap; on every summary append it
// checks whether pending deletions are now unresolvable everywhere.
type clusterWatch struct {
	er     *erasures
	chains []*seldel.Chain

	mu         sync.Mutex
	armed      bool
	lastNormal time.Time
	gaps       samples
	blocks     int
	// delBlock is the block each pending deletion sealed in.
	delBlock map[seldel.Ref]uint64
	toErase  samples
}

type anchorListener struct {
	w     *clusterWatch
	first bool
}

func (l anchorListener) OnAppend(b *seldel.Block) {
	now := time.Now()
	w := l.w
	if l.first {
		w.mu.Lock()
		if w.armed {
			w.blocks++
			if b.IsSummary() && !w.lastNormal.IsZero() {
				w.gaps.addDur(now.Sub(w.lastNormal))
			}
		}
		if !b.IsSummary() {
			w.lastNormal = now
		}
		w.mu.Unlock()
	}
	if b.IsSummary() {
		w.sweep(now)
	}
}

func (anchorListener) OnTruncate(_, _ uint64) {}

// sweep marks every pending deletion that no anchor resolves anymore
// as erased.
func (w *clusterWatch) sweep(now time.Time) {
	if w.er == nil {
		return
	}
	for _, ref := range w.er.pendingRefs() {
		gone := true
		for _, c := range w.chains {
			if _, _, ok := c.Lookup(ref); ok {
				gone = false
				break
			}
		}
		if !gone {
			continue
		}
		if !w.er.markErased(ref, now) {
			continue
		}
		w.mu.Lock()
		if blk, ok := w.delBlock[ref]; ok {
			w.toErase.add(float64(w.chains[0].Head().Number - blk))
		}
		w.mu.Unlock()
	}
}

// assemble builds the quorum over a fresh zero-delay network and
// replays the warm-up prefix through anchor 0.
func (in *replicateInputs) assemble(seed int64, er *erasures) (*cluster, error) {
	c := &cluster{net: seldel.NewNetwork(seldel.NetworkConfig{Seed: seed})}
	names := make([]string, anchors)
	for i, kp := range in.keys {
		names[i] = kp.Name()
	}
	q, err := seldel.NewQuorum(names)
	if err != nil {
		c.close()
		return nil, err
	}
	c.watch = &clusterWatch{er: er, delBlock: map[seldel.Ref]uint64{}}
	for i, kp := range in.keys {
		v := seldel.NewVerifier(1, 0)
		c.verifies = append(c.verifies, v)
		n, err := seldel.NewNode(seldel.NodeConfig{
			Key: kp,
			Chain: seldel.Config{
				SequenceLength: 4,
				MaxSequences:   4,
				Registry:       in.p.reg,
				Clock:          seldel.NewLogicalClock(0),
				Verifier:       v,
			},
			Quorum:            q,
			Network:           c.net,
			VoteRetryInterval: repVoteRetry,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		ch := n.Chain()
		c.chains = append(c.chains, ch)
		ch.AddListener(anchorListener{w: c.watch, first: i == 0})
	}
	c.watch.chains = c.chains
	ctx := context.Background()
	for i := 0; i < len(in.warm); i += repBatch {
		if _, err := c.nodes[0].SubmitWait(ctx, in.warm[i:i+repBatch]...); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

// repCall is one producer's SubmitWait call.
type repCall struct {
	entries []*seldel.Entry
	sealed  []seldel.Sealed
}

func runReplicate(e *env, inAny any, tr *tracer) (*pass, error) {
	in := inAny.(*replicateInputs)
	er := newErasures()
	c, setupSecs, err := timeSetup(tr != nil,
		func(int) error { return nil },
		func(int) (*cluster, error) { return in.assemble(e.seed, er) },
		func(c *cluster) { c.close() })
	if err != nil {
		return nil, fmt.Errorf("assembling quorum: %w", err)
	}
	defer c.close()
	res := newResults()
	res.set("setup_s", "s", median(setupSecs), len(setupSecs))

	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	settle()
	net0 := c.net.Stats()
	verified0 := verifiedSum(c)
	entries0 := c.nodes[0].PipelineStats().Entries
	c.watch.mu.Lock()
	c.watch.armed = true
	c.watch.mu.Unlock()

	var (
		mu          sync.Mutex
		lat         samples
		ok, tried   int64
		failed      int64
		survivors   []repCall
		bad         []string
		next        int
		exhausted   bool
		producersWG sync.WaitGroup
		retries     atomic.Int64
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		failed++
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	start := time.Now()
	deadline := start.Add(e.duration())
	for range chainProducers {
		producersWG.Add(1)
		go func() {
			defer producersWG.Done()
			var prev repCall
			for k := 0; time.Now().Before(deadline); k++ {
				mu.Lock()
				if next+repBatch > len(in.load) {
					exhausted = true
					mu.Unlock()
					return
				}
				batch := append([]*seldel.Entry(nil), in.load[next:next+repBatch]...)
				next += repBatch
				mu.Unlock()
				var target seldel.Ref
				deleting := k%repDeleteEvery == repDeleteEvery-1 && len(prev.sealed) > 0
				if deleting {
					target = prev.sealed[0].Ref
					d, err := in.p.deletion(prev.entries[0].Owner, target)
					if err != nil {
						violate("%v", err)
						return
					}
					batch = append(batch, d)
				}
				t0 := time.Now()
				if deleting {
					er.request(target, t0)
				}
				// A seal that finds the summary vote still open after the
				// node's wait budget fails with ErrSummaryPending, which the
				// node documents as retryable; the call's latency includes
				// the retries.
				sealed, err := c.nodes[0].SubmitWait(ctx, batch...)
				for errors.Is(err, node.ErrSummaryPending) {
					retries.Add(1)
					sealed, err = c.nodes[0].SubmitWait(ctx, batch...)
				}
				d := time.Since(t0)
				mu.Lock()
				tried++
				mu.Unlock()
				if err != nil {
					violate("SubmitWait: %v", err)
					continue
				}
				if deleting {
					if m := sealed[len(sealed)-1].Mark.String(); m != "approved" {
						violate("deletion of %v resolved %s", target, m)
					}
					c.watch.mu.Lock()
					c.watch.delBlock[target] = sealed[len(sealed)-1].Block
					c.watch.mu.Unlock()
				}
				lat.addDur(d)
				mu.Lock()
				ok++
				if k%survivorStride == 1 {
					survivors = append(survivors, repCall{entries: batch[1:repBatch], sealed: sealed[1:repBatch]})
				}
				mu.Unlock()
				prev = repCall{entries: batch[:repBatch], sealed: sealed[:repBatch]}
			}
		}()
	}
	producersWG.Wait()
	wall := time.Since(start)
	net1 := c.net.Stats()
	c.watch.mu.Lock()
	c.watch.armed = false
	blocks := c.watch.blocks
	c.watch.mu.Unlock()
	verified1 := verifiedSum(c)
	entries1 := c.nodes[0].PipelineStats().Entries

	p := &pass{res: res, attempted: tried, failed: failed}
	for _, msg := range bad {
		p.violate("replicate: %s", msg)
	}
	if exhausted {
		res.note("ops_per_s", "input pool exhausted before the deadline")
	}
	res.set("ops_per_s", "ops/s", float64(ok)/wall.Seconds(), int(ok))
	res.set("node.summary_pending_retries", "count", float64(retries.Load()), int(ok))
	res.setQuantiles("latency", "ms", &lat, 50, 95, 99)
	res.set("error_rate", "fraction", ratio(float64(failed), float64(tried)), int(tried))

	for i := 0; er.pendingCount() > 0; i += repBatch {
		c.net.Flush()
		c.watch.sweep(time.Now())
		if er.pendingCount() == 0 {
			break
		}
		if i >= len(in.filler) {
			p.violate("replicate: %d requested deletions never erased", er.pendingCount())
			break
		}
		if _, err := c.nodes[0].SubmitWait(ctx, in.filler[i:i+repBatch]...); err != nil {
			p.violate("replicate: filler: %v", err)
			break
		}
	}
	res.setQuantiles("erasure", "ms", &er.lat)
	checkCluster(p, c, er, survivors)

	if tr != nil {
		committed := float64(entries1 - entries0)
		res.set("netsim.msgs_per_block", "count", ratio(float64(net1.Sent-net0.Sent), float64(blocks)), blocks)
		res.set("netsim.bytes_per_block", "bytes", ratio(float64(net1.Bytes-net0.Bytes), float64(blocks)), blocks)
		res.set("node.sigchecks_per_entry", "count", ratio(float64(verified1-verified0), committed)/anchors, int(committed))
		res.set("chain.blocks_per_s", "1/s", float64(blocks)/wall.Seconds(), blocks)
		res.setQuantiles("consensus.summary_gap_ms", "ms", &c.watch.gaps)
		res.set("node.blocks_to_erase", "count", mean(c.watch.toErase.sorted()), c.watch.toErase.len())
		res.set("verify.sig_us", "us", sigMicros(in.p.reg, in.load[:256]), 256)
	}
	return p, nil
}

func verifiedSum(c *cluster) uint64 {
	var n uint64
	for _, v := range c.verifies {
		n += v.Stats().Verified
	}
	return n
}

// checkCluster verifies the quorum after a pass: every anchor intact
// and on the same head, deleted entries unresolvable on every anchor,
// surviving entries resolvable with their bytes everywhere.
func checkCluster(p *pass, c *cluster, er *erasures, survivors []repCall) {
	c.net.Flush()
	head := c.chains[0].HeadHash()
	for i, n := range c.nodes {
		ch := n.Chain()
		if err := ch.VerifyIntegrity(); err != nil {
			p.violate("anchor %d: VerifyIntegrity: %v", i, err)
		}
		if ch.HeadHash() != head {
			p.violate("anchor %d head %d differs from anchor 0", i, ch.Head().Number)
		}
		for ref := range er.erasedRefs() {
			if _, _, ok := ch.Lookup(ref); ok {
				p.violate("anchor %d still resolves deleted %v", i, ref)
			}
		}
		for _, s := range survivors {
			for j, e := range s.entries {
				got, _, ok := ch.Lookup(s.sealed[j].Ref)
				if !ok || !bytes.Equal(got.Payload, e.Payload) {
					p.violate("anchor %d lost surviving entry %v", i, s.sealed[j].Ref)
				}
			}
		}
	}
}
