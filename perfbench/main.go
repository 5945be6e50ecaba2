// Command perfbench is the repository benchmark. It drives one seeded
// workload through the library's public entry points, checks that
// every output is correct, and prints the end-to-end metrics (untraced)
// or the per-layer metrics and stage table (traced) followed by one
// JSON result line. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload erase --seed 3 --seconds 10 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the metrics an untraced run reports; every workload
// defines each of them.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms"}

// perLayer are the metrics a traced run reports. A layer the workload
// does not exercise, or a percentile with too few samples behind it,
// reports 0; the printed table gives every value's sample count.
var perLayer = []string{
	"latency_p95_ms", "latency_p99_ms", "erasure_p50_ms", "erasure_p99_ms", "read_p50_ms", "read_p99_ms", "error_rate", "space_amp",
	"store.put_us_p50", "store.put_us_p99", "store.sync_ms_p50", "store.sync_ms_p99",
	"store.fsyncs_per_block", "store.durable_wait_ms_p50", "store.durable_wait_ms_p99", "store.bytes_per_entry",
	"mempool.submit_us_p50", "mempool.submit_us_p99", "mempool.to_seal_ms_p50", "mempool.to_seal_ms_p99",
	"mempool.entries_per_block", "mempool.queue_fraction_mean",
	"verify.sigchecks_per_entry", "verify.cache_hits_per_entry", "verify.sig_us", "verify.busy_share",
	"chain.blocks_per_s", "chain.carried_per_summary", "chain.mark_ms_p50", "chain.mark_ms_p99",
	"chain.mark_to_summary_ms_p50", "chain.mark_to_summary_ms_p99", "chain.blocks_mark_to_cut",
	"compact.lag_ms_p50", "compact.lag_ms_p99", "compact.bytes_reclaimed_per_cut",
	"manifest.cut_ms_p50", "manifest.cut_ms_p99", "manifest.tombstones_per_record",
	"serve.self_ms_p50", "serve.self_ms_p99", "serve.backend_submit_ms_p50", "serve.backend_submit_ms_p99",
	"serve.page_ms_p50", "serve.page_ms_p99", "serve.prove_ms_p50", "serve.prove_ms_p99", "serve.shed_fraction",
	"loadgen.lag_ms_p99",
	"netsim.msgs_per_block", "netsim.bytes_per_block", "node.sigchecks_per_entry",
	"consensus.summary_gap_ms_p50", "consensus.summary_gap_ms_p99", "node.blocks_to_erase",
	"node.summary_pending_retries",
	"trace.overhead_latency_p50_ms", "trace.overhead_ops_per_s", "trace.stage_reconcile_error",
}

// untracedFigures are the end-to-end figures a traced run reports from
// its untraced pass, so tracing overhead does not skew them.
var untracedFigures = []string{"latency_p95_ms", "latency_p99_ms", "erasure_p50_ms", "erasure_p99_ms",
	"read_p50_ms", "read_p99_ms", "error_rate", "space_amp", "node.summary_pending_retries"}

// units gives each metric's unit; names ending in _ms, _us or _s take
// theirs from the suffix.
var units = map[string]string{
	"ops_per_s": "ops/s", "error_rate": "fraction", "space_amp": "ratio",
	"store.fsyncs_per_block": "count", "store.bytes_per_entry": "bytes",
	"mempool.entries_per_block": "count", "mempool.queue_fraction_mean": "fraction",
	"verify.sigchecks_per_entry": "count", "verify.cache_hits_per_entry": "count",
	"verify.busy_share": "fraction", "chain.blocks_per_s": "1/s", "chain.carried_per_summary": "count",
	"chain.blocks_mark_to_cut": "count", "compact.bytes_reclaimed_per_cut": "bytes",
	"manifest.tombstones_per_record": "count", "serve.shed_fraction": "fraction",
	"netsim.msgs_per_block": "count", "netsim.bytes_per_block": "bytes",
	"node.sigchecks_per_entry": "count", "node.blocks_to_erase": "count", "node.summary_pending_retries": "count",
	"trace.overhead_ops_per_s": "ops/s", "trace.stage_reconcile_error": "fraction",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	base := name
	if i := strings.LastIndex(base, "_p"); i > 0 && strings.Count(base[i:], "_") == 1 {
		base = base[:i]
	}
	for _, suf := range []string{"_ms", "_us", "_s"} {
		if strings.HasSuffix(base, suf) {
			return suf[1:]
		}
	}
	return "count"
}

// env is one benchmark invocation.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// work holds this process's store copies; removed on exit.
	work string
}

func (e *env) dir(name string) string { return filepath.Join(e.work, name) }

func (e *env) duration() time.Duration { return time.Duration(e.seconds) * time.Second }

// pass is the outcome of running a workload once.
type pass struct {
	res               *results
	attempted, failed int64
	// violations are failed correctness checks.
	violations []string
}

func (p *pass) violate(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

// workload runs one pass; tr is nil for an untraced pass.
type workload func(e *env, in any, tr *tracer) (*pass, error)

type spec struct {
	prepare func(e *env) (any, error)
	run     workload
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"ingest", "erase", "serve-mixed", "replicate"}

var workloads = map[string]spec{
	"ingest":      {prepare: prepareIngest, run: runChain},
	"erase":       {prepare: prepareErase, run: runChain},
	"serve-mixed": {prepare: prepareServe, run: runServe},
	"replicate":   {prepare: prepareReplicate, run: runReplicate},
}

func main() { os.Exit(run()) }

func run() int {
	var e env
	flag.StringVar(&e.workload, "workload", "", "workload: ingest, erase, serve-mixed, replicate, or all of them in turn")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.IntVar(&e.seconds, "seconds", 10, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "checkout root; generated files go under its .bench_build")
	flag.Parse()
	e.trace = *traceFlag == 1
	names := []string{e.workload}
	if e.workload == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok || e.seconds < 1 {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", name)
			return 2
		}
	}
	code := 0
	for _, name := range names {
		e.workload = name
		code = max(code, runWorkload(e, workloads[name]))
	}
	return code
}

// runWorkload runs one workload's passes and prints its result; it
// returns the exit code.
func runWorkload(e env, w spec) int {
	e.work = filepath.Join(e.root, ".bench_build", "work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		e.workload, e.seed, e.seconds, e.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	in, err := w.prepare(&e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: preparing inputs:", err)
		return 1
	}
	p, err := w.run(&e, in, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("# end-to-end (untraced pass)")
	fmt.Print(p.res.table())
	names := endToEnd
	out := p
	if e.trace {
		tr := newTracer()
		tp, err := w.run(&e, in, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced pass:", err)
			return 1
		}
		for _, name := range untracedFigures {
			if v, ok := p.res.values[name]; ok {
				tp.res.set(name, v.Unit, v.Value, p.res.counts[name])
				if note := p.res.notes[name]; note != "" {
					tp.res.note(name, note)
				}
			}
		}
		tp.res.set("trace.overhead_latency_p50_ms", "ms", tp.res.get("latency_p50_ms")-p.res.get("latency_p50_ms"), -1)
		tp.res.set("trace.overhead_ops_per_s", "ops/s", tp.res.get("ops_per_s")-p.res.get("ops_per_s"), -1)
		fmt.Println("# per-layer (traced pass)")
		fmt.Print(tp.res.table())
		path := filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", e.workload, e.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		tp.violations = append(p.violations, tp.violations...)
		names, out = perLayer, tp
	}
	return emit(out, names)
}

// emit prints the result line and returns the exit code: non-zero on
// any correctness violation.
func emit(p *pass, names []string) int {
	metrics := map[string]metric{}
	for _, name := range names {
		m, ok := p.res.values[name]
		if !ok {
			m = metric{Unit: unitOf(name)}
		}
		metrics[name] = m
	}
	for _, v := range p.violations {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violation:", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(p.violations) == 0, max(p.attempted, 1), p.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(p.violations) > 0 {
		return 1
	}
	return 0
}

// settle flushes every dirty page to disk, so that writeback of the
// untimed input copies does not land inside a timed section (on ext4 an
// fsync commits the journal and can wait for other files' data).
func settle() { syscall.Sync() }

// timeSetup runs open repeatedly (see minSetupReps) and returns the
// last handle with every set-up's duration; traced passes set up once.
// Each rep gets a fresh copy of its inputs from prepare, which is
// untimed; every handle but the last is released with discard.
func timeSetup[T any](traced bool, prepare func(rep int) error, open func(rep int) (T, error), discard func(T)) (T, []float64, error) {
	var secs []float64
	var spent float64
	for rep := 0; ; rep++ {
		if err := prepare(rep); err != nil {
			var zero T
			return zero, nil, err
		}
		settle()
		start := time.Now()
		h, err := open(rep)
		if err != nil {
			return h, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		spent += secs[rep]
		more := !traced && (rep+1 < minSetupReps || spent < setupBudget.Seconds()) && rep+1 < maxSetupReps
		if !more {
			return h, secs, nil
		}
		discard(h)
	}
}

// passTimeout bounds everything a pass waits on, so a wedged pipeline
// fails the run inside the harness's limit instead of hanging it.
const passTimeout = 120 * time.Second

// An untraced pass sets up at least minSetupReps and at most
// maxSetupReps times, stopping once setupBudget is spent, and reports
// the median; a traced pass sets up once.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)
