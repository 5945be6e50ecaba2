package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/mempool"
	"github.com/seldel/seldel/internal/simclock"
)

// memoMatchesReferenceForTest compares the memoized summary of the
// current state with the naive reference planner, under one read lock.
// Off summary slots there is nothing to compare.
func (c *Chain) memoMatchesReferenceForTest() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.isSummarySlot(c.head().Header.Number + 1) {
		return nil
	}
	m := c.summaryLocked()
	ref, refPlan := c.planSummaryReferenceLocked()
	switch {
	case m.hash != ref.Hash() || m.block.Hash() != ref.Hash():
		return fmt.Errorf("summary %d: memo hash %s (block %s), reference %s",
			ref.Header.Number, m.hash, m.block.Hash(), ref.Hash())
	case !bytes.Equal(m.block.Encode(), ref.Encode()):
		return fmt.Errorf("summary %d: memo encoding differs from reference", ref.Header.Number)
	case m.plan != refPlan:
		return fmt.Errorf("summary %d: memo plan %+v, reference %+v", ref.Header.Number, m.plan, refPlan)
	}
	return nil
}

// referenceSummaryForTest plans the next summary with the reference
// planner.
func (c *Chain) referenceSummaryForTest() *block.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, _ := c.planSummaryReferenceLocked()
	return b
}

// memoConfigs are the retention geometries the memo is checked under:
// both shrink policies, floors, and the Fig. 9 redundancy reference.
func memoConfigs(e *testEnv) map[string]Config {
	return map[string]Config{
		"all-but-newest": {
			SequenceLength: 3, MaxSequences: 2, Shrink: ShrinkAllButNewest,
			Registry: e.registry, Clock: simclock.NewLogical(0),
		},
		"minimal-redundancy": {
			SequenceLength: 4, MaxBlocks: 12, MinBlocks: 5, Shrink: ShrinkMinimal,
			RedundancyReference: true, Registry: e.registry, Clock: simclock.NewLogical(0),
		},
	}
}

// TestSummaryMemoMatchesReference drives seeded op sequences — normal
// appends with temporaries expiring by head time and by block, approved
// deletion marks, summaries that truncate, InjectMarkForTest, and
// restores through RestoreStream — and after every step checks that
// BuildSummary equals the reference planner bit for bit, that asking
// again is a memo hit, and that readers planning concurrently with each
// op agree with the reference too (run it under -race).
func TestSummaryMemoMatchesReference(t *testing.T) {
	env := newEnv(t, "alpha", "bravo")
	for name, cfg := range memoConfigs(env) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				runMemoOps(t, env, cfg, seed)
			})
		}
	}
}

func runMemoOps(t *testing.T, env *testEnv, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c := newChain(t, cfg)

	// readAlong starts readers that plan c's current summary through
	// BuildSummary and the memo oracle while the next op runs; join
	// waits for them and fails the test on a mismatch.
	readAlong := func(c *Chain) (join func()) {
		const readers = 3
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = c.BuildSummary()
				if err := c.memoMatchesReferenceForTest(); err != nil {
					errs <- err
				}
			}()
		}
		return func() {
			t.Helper()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("concurrent reader: %v", err)
			}
		}
	}

	var (
		alphaRefs                           []block.Ref
		summaries, truncations, injected    int
		restores, approved, expired, checks int
	)
	check := func(step string) {
		t.Helper()
		if !c.NextIsSummary() {
			return
		}
		checks++
		got, err := c.BuildSummary()
		if err != nil {
			t.Fatalf("%s: BuildSummary: %v", step, err)
		}
		want := c.referenceSummaryForTest()
		if got.Hash() != want.Hash() || !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("%s: summary %d differs from the reference planner (%d vs %d carried)",
				step, want.Header.Number, len(got.Carried), len(want.Carried))
		}
		plans := c.plans.Load()
		again, _ := c.BuildSummary()
		if again != got || c.plans.Load() != plans {
			t.Fatalf("%s: second BuildSummary re-planned the same state", step)
		}
		if err := c.memoMatchesReferenceForTest(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	for step := 0; step < 90; step++ {
		label := fmt.Sprintf("step %d", step)
		check(label)
		join := readAlong(c)
		if c.NextIsSummary() {
			// Sometimes corrupt the state the memo was planned from
			// before the summary lands.
			if len(alphaRefs) > 0 && rng.Intn(3) == 0 {
				c.InjectMarkForTest(alphaRefs[rng.Intn(len(alphaRefs))])
				injected++
				check(label + " (injected mark)")
			}
			s, err := c.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			before := c.Marker()
			if err := c.AppendBlock(s); err != nil {
				t.Fatalf("%s: append summary: %v", label, err)
			}
			summaries++
			if c.Marker() != before {
				truncations++
			}
			join()
			continue
		}
		switch op := rng.Intn(10); {
		case op < 6: // normal block
			now, num := c.Head().Time, c.Head().Number
			entries := []*block.Entry{
				env.data("alpha", fmt.Sprintf("a-%d-%d", seed, step)),
				env.temp("bravo", fmt.Sprintf("tt-%d-%d", seed, step), now+uint64(1+rng.Intn(4)), 0),
				env.temp("bravo", fmt.Sprintf("tb-%d-%d", seed, step), 0, num+uint64(2+rng.Intn(5))),
			}
			if len(alphaRefs) > 0 && rng.Intn(2) == 0 {
				dep := alphaRefs[rng.Intn(len(alphaRefs))]
				if _, _, live := c.Lookup(dep); live && !c.IsMarked(dep) {
					entries = append(entries, block.NewData("alpha", []byte(fmt.Sprintf("d-%d", step))).
						WithDependsOn(dep).Sign(env.keys["alpha"]))
				}
			}
			b := mustBuildNormal(t, c, entries...)
			if err := c.AppendBlock(b); err != nil {
				t.Fatalf("%s: append: %v", label, err)
			}
			alphaRefs = append(alphaRefs, block.Ref{Block: b.Header.Number, Entry: 0})
		case op < 8 && len(alphaRefs) > 0: // deletion request
			target := alphaRefs[rng.Intn(len(alphaRefs))]
			b := mustBuildNormal(t, c, env.del("alpha", target))
			outcomes, err := c.AppendBlockOutcomes(b)
			if err != nil {
				t.Fatalf("%s: append deletion: %v", label, err)
			}
			if outcomes[0] == mempool.MarkApproved {
				approved++
			}
		case op == 8 && len(alphaRefs) > 0: // mark outside any append
			c.InjectMarkForTest(alphaRefs[rng.Intn(len(alphaRefs))])
			injected++
		default: // restart from the persisted live blocks
			expired += int(c.Stats().ExpiredEntries)
			blocks := c.Blocks()
			restored, err := RestoreStream(cfg, func(yield func(*block.Block, error) bool) {
				for _, b := range blocks {
					if !yield(b, nil) {
						return
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c = restored
			restores++
		}
		join()
		check(label)
	}
	expired += int(c.Stats().ExpiredEntries)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if summaries == 0 || truncations == 0 || injected == 0 || restores == 0 || approved == 0 || expired == 0 || checks == 0 {
		t.Fatalf("op mix left a case unexercised: summaries=%d truncations=%d injected=%d restores=%d approved=%d expired=%d checks=%d",
			summaries, truncations, injected, restores, approved, expired, checks)
	}
}

// summaryWithCarried drives a fresh chain to a summary slot whose
// summary carries entries, returning the chain, every block appended
// after genesis, and that summary (not yet appended).
func summaryWithCarried(t *testing.T, env *testEnv) (*Chain, []*block.Block, *block.Block) {
	t.Helper()
	c := newChain(t, defaultConfig(env))
	var history []*block.Block
	for i := 0; i < 30; i++ {
		if c.NextIsSummary() {
			s, err := c.BuildSummary()
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Carried) > 1 {
				return c, history, s
			}
			if err := c.AppendBlock(s); err != nil {
				t.Fatal(err)
			}
			history = append(history, s)
			continue
		}
		b := mustBuildNormal(t, c, env.data("alpha", fmt.Sprintf("carry-%d", i)))
		if err := c.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
		history = append(history, b)
	}
	t.Fatal("no summary carried entries")
	return nil, nil, nil
}

// TestSummaryMemoRejectsTamperedCarried: a summary that keeps the
// memo's header but alters one carried entry is rejected, whether or
// not the forger recomputed the header's commitment — and the honest
// summary still appends afterwards.
func TestSummaryMemoRejectsTamperedCarried(t *testing.T) {
	env := newEnv(t, "alpha")
	c, _, s := summaryWithCarried(t, env)
	head := c.HeadHash()

	altered := append([]block.CarriedEntry(nil), s.Carried...)
	altered[1].Entry = env.data("alpha", "altered")
	sameHeader := &block.Block{Header: s.Header, Carried: altered, SeqRef: s.SeqRef}
	if err := c.AppendBlock(sameHeader); !errors.Is(err, block.ErrRootMismatch) {
		t.Errorf("memo header over an altered carried entry: err = %v, want ErrRootMismatch", err)
	}
	recommitted := block.NewSummary(s.Header.Number, s.Header.Time, s.Header.PrevHash, altered, s.SeqRef)
	if err := c.AppendBlock(recommitted); !errors.Is(err, ErrSummaryMismatch) {
		t.Errorf("altered carried entry with a recomputed header: err = %v, want ErrSummaryMismatch", err)
	}
	if c.HeadHash() != head {
		t.Fatal("a rejected summary changed the head")
	}
	if err := c.AppendBlock(s); err != nil {
		t.Fatalf("honest summary rejected after the forgeries: %v", err)
	}
}

// TestSummaryMemoRejectsDivergingPlan: two chains with one history
// diverge by a mark injected after both planned the slot; each rejects
// the other's summary with ErrSummaryMismatch, so the memo never
// answers for a state it was not planned from.
func TestSummaryMemoRejectsDivergingPlan(t *testing.T) {
	env := newEnv(t, "alpha")
	honest, history, s := summaryWithCarried(t, env)
	corrupt := newChain(t, defaultConfig(env))
	for _, b := range history {
		if err := corrupt.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if mine, err := corrupt.BuildSummary(); err != nil || mine.Hash() != s.Hash() {
		t.Fatalf("replayed chain plans another summary before diverging (err %v)", err)
	}
	corrupt.InjectMarkForTest(s.Carried[0].Ref())
	diverged, err := corrupt.BuildSummary()
	if err != nil {
		t.Fatal(err)
	}
	if diverged.Hash() == s.Hash() {
		t.Fatal("the injected mark did not change the plan")
	}
	if err := honest.AppendBlock(diverged); !errors.Is(err, ErrSummaryMismatch) {
		t.Errorf("honest chain: err = %v, want ErrSummaryMismatch", err)
	}
	if err := corrupt.AppendBlock(s); !errors.Is(err, ErrSummaryMismatch) {
		t.Errorf("corrupted chain: err = %v, want ErrSummaryMismatch", err)
	}
	if err := honest.AppendBlock(s); err != nil {
		t.Fatalf("honest summary rejected: %v", err)
	}
}
