package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval. Spans of one operation share op; a
// stage span's parent is its operation's root span. Block-level spans
// (a PutBlock, a Sync, a DeleteBelowRecord) carry op 0.
type span struct {
	id, parent, op uint64
	name           string
	start, end     time.Time
}

// tracer keeps spans in memory while a traced pass measures and writes
// them out when it ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, op, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	t.mu.Unlock()
	return id
}

// named returns the spans called name, ordered by start.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// write stores every span as one tab-separated line: id, parent, op,
// name, start and end in nanoseconds since the pass began.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name,
			s.start.Sub(t.epoch).Nanoseconds(), s.end.Sub(t.epoch).Nanoseconds())
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", n, path)
	return nil
}

// overlap returns how much of [a, b) the (start-ordered, disjoint)
// spans cover.
func overlap(spans []span, a, b time.Time) time.Duration {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end.After(a) })
	var d time.Duration
	for ; i < len(spans) && spans[i].start.Before(b); i++ {
		lo, hi := spans[i].start, spans[i].end
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}

// reconcileTolerance is how far the sum of the stage means may sit
// from the mean measured end-to-end time before the traced pass fails.
const reconcileTolerance = 0.01

// maxIncomplete is the share of operations that may lack a stage
// stamp (for example an erasure whose summary block was written before
// the pass began) before the traced pass fails.
const maxIncomplete = 0.01

// maxClamped is the share of operations whose stamps may run backwards
// and be clamped before the traced pass fails: a wrapper stamping the
// wrong point shows up as clamped stages.
const maxClamped = 0.01

// stageTable splits operations into contiguous stages: stage i of an
// operation runs from its boundary i to boundary i+1. The stage sum is
// reconciled against the end-to-end latency the workload measured for
// the same operation, not against the first and last stamps, so a stamp
// clamped past the operation's end makes the check fail.
type stageTable struct {
	title  string
	stages []string
	// self subtracts, per stage, the time covered by block-level child
	// spans (Sync inside the durable wait), giving the stage's own time.
	self      map[string][]span
	durs      map[string]*samples
	selfTotal map[string]time.Duration
	// e2e holds the measured end-to-end latency of every complete
	// operation.
	e2e samples
	// incomplete counts operations with a missing boundary stamp;
	// disordered counts those whose stamps ran backwards (a later
	// layer began before the earlier one returned) and were clamped.
	ops, incomplete, disordered int
}

func newStageTable(title string, stages ...string) *stageTable {
	st := &stageTable{title: title, stages: stages, self: map[string][]span{},
		durs: map[string]*samples{}, selfTotal: map[string]time.Duration{}}
	for _, s := range stages {
		st.durs[s] = &samples{}
	}
	return st
}

// addOp records one operation from its boundary stamps and the
// end-to-end latency the workload measured for it, and writes its root
// and stage spans into tr.
func (st *stageTable) addOp(tr *tracer, op uint64, bounds []time.Time, e2e time.Duration) {
	st.ops++
	if len(bounds) != len(st.stages)+1 {
		panic("stage table: boundary count does not match stages")
	}
	for _, b := range bounds {
		if b.IsZero() {
			st.incomplete++
			return
		}
	}
	b := append([]time.Time(nil), bounds...)
	clamped := false
	for i := 1; i < len(b); i++ {
		if b[i].Before(b[i-1]) {
			b[i] = b[i-1]
			clamped = true
		}
	}
	if clamped {
		st.disordered++
	}
	root := tr.add(st.title, op, 0, b[0], b[len(b)-1])
	for i, name := range st.stages {
		d := b[i+1].Sub(b[i])
		st.durs[name].addDur(d)
		if kids := st.self[name]; kids != nil {
			d -= overlap(kids, b[i], b[i+1])
		}
		st.selfTotal[name] += d
		tr.add(name, op, root, b[i], b[i+1])
	}
	st.e2e.addDur(e2e)
}

// addDurations records one operation already split into stage
// durations, with its measured end-to-end time. ordered is false when
// the operation's child spans did not nest inside it.
func (st *stageTable) addDurations(tr *tracer, op uint64, start, end time.Time, durs []time.Duration, ordered bool) {
	st.ops++
	if !ordered {
		st.disordered++
	}
	for i, name := range st.stages {
		st.durs[name].addDur(durs[i])
		st.selfTotal[name] += durs[i]
	}
	st.e2e.addDur(end.Sub(start))
	tr.add(st.title, op, 0, start, end)
}

// check reconciles the stage means with the end-to-end mean and fails
// when stamps are missing or clamped for too many operations.
func (st *stageTable) check() error {
	if st.ops == 0 {
		return fmt.Errorf("%s: no operations traced", st.title)
	}
	if frac := ratio(float64(st.incomplete), float64(st.ops)); frac > maxIncomplete {
		return fmt.Errorf("%s: %d of %d operations lack a stage stamp (a wrapper missed calls)",
			st.title, st.incomplete, st.ops)
	}
	if frac := ratio(float64(st.disordered), float64(st.ops)); frac > maxClamped {
		return fmt.Errorf("%s: %d of %d operations have stamps out of order (a wrapper stamps the wrong point)",
			st.title, st.disordered, st.ops)
	}
	if err := st.reconcileError(); err > reconcileTolerance {
		return fmt.Errorf("%s: stage means differ from the end-to-end mean by %.2f%%", st.title, 100*err)
	}
	return nil
}

func (st *stageTable) reconcileError() float64 {
	e2e := mean(st.e2e.sorted())
	var sum float64
	for _, s := range st.stages {
		sum += mean(st.durs[s].sorted())
	}
	if e2e == 0 {
		return 0
	}
	d := (sum - e2e) / e2e
	if d < 0 {
		d = -d
	}
	return d
}

// print renders the stage table, then each layer's self time.
func (st *stageTable) print() {
	n := st.e2e.len()
	e2eMean := mean(st.e2e.sorted())
	fmt.Printf("# stage table: %s (%d ops traced, %d incomplete, %d with clamped stamps)\n",
		st.title, st.ops, st.incomplete, st.disordered)
	fmt.Printf("#   %-28s %10s %10s %10s %10s %7s\n", "stage", "mean_ms", "p50_ms", "p99_ms", "self_ms", "share")
	layers := map[string]float64{}
	var order []string
	var sum float64
	for _, name := range st.stages {
		sorted := st.durs[name].sorted()
		m := mean(sorted)
		sum += m
		p50, _ := quantile(sorted, 0.5)
		p99, ok := quantile(sorted, 0.99)
		p99s := fmt.Sprintf("%10.4f", p99)
		if !ok {
			p99s = fmt.Sprintf("%10s", "-")
		}
		self := 0.0
		if n > 0 {
			self = ms(st.selfTotal[name]) / float64(n)
		}
		fmt.Printf("#   %-28s %10.4f %10.4f %s %10.4f %6.1f%%\n", name, m, p50, p99s, self, 100*ratio(m, e2eMean))
		layer, _, _ := strings.Cut(name, ".")
		if _, ok := layers[layer]; !ok {
			order = append(order, layer)
		}
		layers[layer] += self
	}
	fmt.Printf("#   %-28s %10.4f   (measured end-to-end mean %.4f ms; stage sum off by %.3f%%, tolerance %.1f%%)\n",
		"sum of stages", sum, e2eMean, 100*st.reconcileError(), 100*reconcileTolerance)
	for _, l := range order {
		fmt.Printf("#   layer self time %-12s %10.4f ms/op\n", l, layers[l])
	}
}

// goid returns the current goroutine's id. Traced serving passes use
// it to tie a Backend call to the HTTP request whose handler made it;
// untraced passes never call it.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	var id uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
