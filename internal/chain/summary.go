package chain

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/compact"
	"github.com/seldel/seldel/internal/merkle"
)

// summaryPlan is the deterministic retention decision taken when a
// summary block is created: which prefix of the chain is merged away and
// how many temporary entries expired in the process. Every honest node
// derives the identical plan from the identical chain state (§IV-B), so
// the plan never needs to be propagated.
type summaryPlan struct {
	// newMarker is the Genesis marker after the merge (unchanged when
	// nothing is merged).
	newMarker uint64
	// expired counts temporary entries dropped because their deadline
	// passed (§IV-D.4).
	expired uint64
}

// seqOf returns the sequence index containing block number n.
func (c *Chain) seqOf(n uint64) uint64 { return n / uint64(c.cfg.SequenceLength) }

// seqStart returns the first block number of sequence s.
func (c *Chain) seqStart(s uint64) uint64 { return s * uint64(c.cfg.SequenceLength) }

// retentionPlanLocked decides how far the next summary at block num
// shrinks the chain: the new Genesis marker per Eq. 1 iterated under the
// configured policy, bounded by the §IV-D.3 floors.
func (c *Chain) retentionPlanLocked(num, headTime uint64) summaryPlan {
	currentSeq := c.seqOf(num)
	firstSeq := c.seqOf(c.marker)

	// Decide how far to shrink (Eq. 1, iterated per the configured
	// policy), measured as the first sequence to KEEP.
	keepFrom := firstSeq
	if c.limitExceeded(firstSeq, num) {
		switch c.cfg.Shrink {
		case ShrinkAllButNewest:
			keepFrom = currentSeq
		default: // ShrinkMinimal
			for keepFrom < currentSeq && c.limitExceeded(keepFrom, num) {
				keepFrom++
			}
		}
	}
	// Floors (§IV-D.3): never shrink below MinBlocks live blocks or below
	// MinTimeSpan of covered logical time.
	for keepFrom > firstSeq && c.violatesFloors(keepFrom, num, headTime) {
		keepFrom--
	}

	plan := summaryPlan{newMarker: c.marker}
	if keepFrom > firstSeq {
		plan.newMarker = c.seqStart(keepFrom)
	}
	return plan
}

// summaryMemo is the summary block Σ planned from one chain state, with
// its retention plan and the hash it had when it was planned.
type summaryMemo struct {
	// head and epoch key the chain state the plan was made from.
	head  *block.Block
	epoch uint64
	block *block.Block
	hash  codec.Hash
	plan  summaryPlan
}

// summaryLocked returns the summary planned from the current chain
// state, planning it only when the memo holds another state's plan. The
// plan is a pure function of the chain state, and that state changes
// only by appending a block (a new head) or by a mark that appends none
// (a new planEpoch) — so announce, every vote retry, apply, and
// AppendBlock's comparison of a node's own summary share one plan per
// slot. Callers must hold the chain lock (read or write) and must have
// verified that the next slot is a summary slot. planMu makes concurrent
// readers of one state wait for a single plan instead of each making
// their own.
func (c *Chain) summaryLocked() *summaryMemo {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	head := c.head()
	if m := c.summary; m != nil && m.head == head && m.epoch == c.planEpoch {
		return m
	}
	b, plan := c.planSummaryLocked()
	c.summary = &summaryMemo{head: head, epoch: c.planEpoch, block: b, hash: b.Hash(), plan: plan}
	return c.summary
}

// planSummaryLocked computes the next summary block Σ and its retention
// plan from the carried-entry ledger: instead of rescanning every merged
// block (and every entry already carried inside a previous summary, the
// dominant cost as chains grow), it copies the ledger's origin-ordered
// prefix below the new marker — O(carried output). The result is
// bit-identical to the naive reference planner the golden tests keep.
// Callers must hold the chain lock (read or write) and must have
// verified that the next slot is a summary slot; the method never
// mutates chain state. Everything else reaches it through the memo in
// summaryLocked.
func (c *Chain) planSummaryLocked() (*block.Block, summaryPlan) {
	c.plans.Add(1)
	head := c.head()
	num := head.Header.Number + 1

	plan := c.retentionPlanLocked(num, head.Header.Time)

	var carried []block.CarriedEntry
	if plan.newMarker > c.marker {
		// An entry's origin never exceeds its holder, so every entry of
		// the merged prefix sits in the ledger's origin-< newMarker
		// prefix; entries already migrated into a summary that survives
		// the cut (ShrinkMinimal partial merges) are skipped by holder.
		checkExpiry := c.ledger.expiryPossible(head.Header.Time, num)
		for _, cand := range c.ledger.ordered {
			if cand.ce.OriginBlock >= plan.newMarker {
				break
			}
			if cand.holder >= plan.newMarker || cand.marked {
				continue
			}
			if checkExpiry && cand.ce.Entry.ExpiredAt(head.Header.Time, num) {
				plan.expired++
				continue
			}
			carried = append(carried, cand.ce)
		}
	}

	var seqRef *block.SequenceRef
	if c.cfg.RedundancyReference {
		seqRef = c.middleSequenceRef(c.seqOf(plan.newMarker), c.seqOf(num))
	}

	return block.NewSummaryWith(c.cfg.Verifier, num, head.Header.Time, head.Hash(), carried, seqRef), plan
}

// limitExceeded reports whether the configured MaxBlocks/MaxSequences
// limit is exceeded for a chain whose first kept sequence is keepFrom and
// whose newest block (the summary being created) is num.
func (c *Chain) limitExceeded(keepFrom, num uint64) bool {
	liveLen := num - c.seqStart(keepFrom) + 1
	if c.cfg.MaxBlocks > 0 && liveLen > uint64(c.cfg.MaxBlocks) {
		return true
	}
	if c.cfg.MaxSequences > 0 {
		seqCount := c.seqOf(num) - keepFrom + 1
		if seqCount > uint64(c.cfg.MaxSequences) {
			return true
		}
	}
	return false
}

// violatesFloors reports whether keeping only sequences ≥ keepFrom would
// violate the MinBlocks or MinTimeSpan floor.
func (c *Chain) violatesFloors(keepFrom, num, summaryTime uint64) bool {
	start := c.seqStart(keepFrom)
	liveLen := num - start + 1
	if c.cfg.MinBlocks > 0 && liveLen < uint64(c.cfg.MinBlocks) {
		return true
	}
	if c.cfg.MinTimeSpan > 0 {
		first, ok := c.blockAt(start)
		if ok && summaryTime-first.Header.Time < c.cfg.MinTimeSpan {
			return true
		}
	}
	return false
}

// middleSequenceRef builds the Fig. 9 redundancy reference: the Merkle
// root over the block hashes of the middle live sequence ω_{lβ/2}. Nil
// when fewer than two complete sequences remain.
func (c *Chain) middleSequenceRef(firstLiveSeq, currentSeq uint64) *block.SequenceRef {
	if currentSeq <= firstLiveSeq {
		return nil
	}
	mid := firstLiveSeq + (currentSeq-firstLiveSeq)/2
	if mid >= currentSeq { // only the in-progress sequence remains
		return nil
	}
	start := c.seqStart(mid)
	end := c.seqStart(mid+1) - 1
	hashes := make([]codec.Hash, 0, c.cfg.SequenceLength)
	for n := start; n <= end; n++ {
		b, ok := c.blockAt(n)
		if !ok {
			return nil
		}
		hashes = append(hashes, b.Hash())
	}
	return &block.SequenceRef{
		FirstBlock: start,
		LastBlock:  end,
		Root:       merkle.BuildFromHashes(hashes).Root(),
	}
}

// BuildSummary returns the next summary block Σ computed from local
// state. Every honest node produces a bit-identical block (§IV-B). The
// block is planned once per chain state and shared by every caller, so
// it must not be modified. It is not appended; call AppendBlock with it.
func (c *Chain) BuildSummary() (*block.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	next := c.head().Header.Number + 1
	if !c.isSummarySlot(next) {
		return nil, fmt.Errorf("%w: block %d is not a summary slot", ErrWrongSlot, next)
	}
	return c.summaryLocked().block, nil
}

// applyPlanLocked executes the LOGICAL side of the retention plan after
// its summary block was appended: shift the Genesis marker, drop the cut
// prefix from the live view, and sweep the entry index, mark set, and
// carried-entry ledger — everything later validations and summary plans
// depend on (§IV-C: "the old sequence can be cut off and deleted").
// The physical side — releasing the cut blocks' memory, sweeping dead
// dependency edges, pruning persistent stores — is described by the
// returned compact.Event and executed by the background compactor off
// the append path. Returns nil when nothing was cut.
func (c *Chain) applyPlanLocked(plan summaryPlan) *compact.Event {
	c.stats.ExpiredEntries += plan.expired
	if plan.newMarker == c.marker {
		return nil
	}
	old := c.marker
	cut := int(plan.newMarker - old)
	// Alias the cut prefix before the re-slice: the deletion record
	// below must resolve entry bytes and request co-signatures from
	// blocks that are about to leave the live view — after the cut they
	// are unreachable by design, which is exactly why the record is
	// built here and nowhere else.
	cutBlocks := c.blocks[:cut]
	var cutBytes int64
	for _, b := range cutBlocks {
		cutBytes += int64(b.EncodedSize())
	}
	c.liveBytes -= cutBytes
	c.stats.CutBlocks += uint64(cut)
	// Cheap re-slice only: the compactor copies the tail into a fresh
	// backing array so the cut blocks become collectable without the
	// append path paying for it.
	c.blocks = c.blocks[cut:]
	c.marker = plan.newMarker

	// Sweep the entry index: references whose current location was cut
	// are physically gone. Marks pointing at them are now executed;
	// unmarked leftovers are expired temporaries the merge dropped.
	// (Marked entries left the live counters when their mark was
	// approved, so only the expired ones are decremented here.)
	for ref, loc := range c.index {
		if loc.Block >= c.marker {
			continue
		}
		delete(c.index, ref)
		if m, marked := c.marks[ref]; marked {
			delete(c.marks, ref)
			c.stats.ForgottenEntries++
			c.tombstoneLocked(m, loc, cutBlocks, old)
			continue
		}
		c.liveEntries--
		if loc.Carried {
			c.carriedEntries--
		}
	}
	// The ledger prune must stay logical/synchronous too: a deferred
	// prune would let the NEXT summary plan carry entries whose holder
	// blocks were already cut.
	c.ledger.prune(c.marker)
	ev := &compact.Event{
		OldMarker: old,
		NewMarker: c.marker,
		Blocks:    uint64(cut),
		Bytes:     cutBytes,
	}
	ev.Record = c.sealDeletionRecordLocked(old, cutBlocks)
	return ev
}
