package chain_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/consensus"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/node"
	"github.com/seldel/seldel/internal/simclock"
)

// TestEachAnchorPlansEachSummaryOnce pins the summary memo as a count:
// in a 4-anchor quorum with self-driving vote retries, every anchor
// announces, re-announces, tallies, applies and appends each summary
// slot, yet plans it at most once. (Without the memo each of those
// steps re-planned Σ.)
func TestEachAnchorPlansEachSummaryOnce(t *testing.T) {
	const (
		anchors   = 4
		producers = 3
		calls     = 16
		batch     = 16
		seqLen    = 4
	)
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	reg := identity.NewRegistry()
	names := make([]string, anchors)
	keys := make([]*identity.KeyPair, anchors)
	for i := range names {
		names[i] = fmt.Sprintf("anchor-%d", i)
		keys[i] = identity.Deterministic(names[i], "plan-count")
		if err := reg.RegisterKey(keys[i], identity.RoleMaster); err != nil {
			t.Fatal(err)
		}
	}
	user := identity.Deterministic("alpha", "plan-count")
	if err := reg.RegisterKey(user, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	quorum, err := consensus.NewQuorum(names)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node.Node, anchors)
	for i := range nodes {
		nd, err := node.New(node.Config{
			Key: keys[i],
			Chain: chain.Config{
				SequenceLength: seqLen,
				MaxSequences:   2,
				Registry:       reg,
				Clock:          simclock.NewLogical(0),
			},
			Quorum:            quorum,
			Network:           net,
			VoteRetryInterval: 500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev block.Ref
			for call := range calls {
				entries := make([]*block.Entry, 0, batch+1)
				for i := range batch {
					entries = append(entries, block.NewData("alpha",
						[]byte(fmt.Sprintf("p%d-c%d-e%d", p, call, i))).Sign(user))
				}
				if call%2 == 1 {
					entries = append(entries, block.NewDeletion("alpha", prev).Sign(user))
				}
				// ErrSummaryPending is the node's documented retryable
				// answer while a vote is still open.
				sealed, err := nodes[0].SubmitWait(ctx, entries...)
				for errors.Is(err, node.ErrSummaryPending) {
					sealed, err = nodes[0].SubmitWait(ctx, entries...)
				}
				if err != nil {
					errs <- fmt.Errorf("producer %d call %d: %w", p, call, err)
					return
				}
				prev = sealed[0].Ref
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	net.Flush()

	for _, nd := range nodes {
		c := nd.Chain()
		head := c.Head().Number
		// Summary slots α with (α+1) mod l == 0, up to the head, plus the
		// pending one if the next block is a summary.
		slots := (head + 1) / seqLen
		if c.NextIsSummary() {
			slots++
		}
		plans := c.SummaryPlans()
		if plans == 0 || head+1 < 2*seqLen {
			t.Fatalf("%s: head %d, %d plans: the scenario never reached a summary", nd.Name(), head, plans)
		}
		t.Logf("%s: %d summary plans, %d summary slots (head %d)", nd.Name(), plans, slots, head)
		if plans > slots {
			t.Errorf("%s: %d summary plans for %d summary slots (head %d): a slot was planned more than once",
				nd.Name(), plans, slots, head)
		}
	}
}
