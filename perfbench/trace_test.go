package main

import (
	"strings"
	"testing"
	"time"
)

// appendTable fills an append stage table with n operations of 10 ms
// each; the first bad of them have their PutBlock stamps taken after
// the receipt resolved, as a misplaced wrapper stamp would.
func appendTable(n, bad int) *stageTable {
	st := newStageTable("append", "mempool.submit", "mempool.to_seal", "store.put", "store.durable_wait")
	t0 := time.Unix(0, 0)
	for i := range n {
		s := t0.Add(time.Duration(i) * time.Millisecond)
		end := s.Add(10 * time.Millisecond)
		put := s.Add(4 * time.Millisecond)
		if i < bad {
			put = end.Add(5 * time.Millisecond)
		}
		bounds := []time.Time{s, s.Add(time.Millisecond), put, put.Add(time.Millisecond), end}
		st.addOp(nil, uint64(i+1), bounds, end.Sub(s))
	}
	return st
}

func TestStageTableReconciles(t *testing.T) {
	st := appendTable(1000, 0)
	if err := st.check(); err != nil {
		t.Fatal(err)
	}
	if e := st.reconcileError(); e > 1e-9 {
		t.Fatalf("reconcile error %v on well-placed stamps", e)
	}
}

// A stamp taken past the operation's end is clamped; the clamped stage
// sum then exceeds the measured latency and the share of clamped
// operations exceeds its limit.
func TestStageTableRejectsMisplacedStamp(t *testing.T) {
	st := appendTable(1000, 100)
	if e := st.reconcileError(); e <= reconcileTolerance {
		t.Errorf("reconcile error %v does not exceed the %v tolerance", e, reconcileTolerance)
	}
	if err := st.check(); err == nil {
		t.Error("check passed a table with misplaced stamps")
	}
}

func TestStageTableRejectsClampedShare(t *testing.T) {
	// 1.5% of operations misplaced: the mean moves by less than the
	// tolerance, but the clamped share is over its limit.
	st := appendTable(1000, 15)
	if e := st.reconcileError(); e > reconcileTolerance {
		t.Fatalf("reconcile error %v; the test wants it within tolerance", e)
	}
	err := st.check()
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("check = %v, want a clamped-share failure", err)
	}
}
