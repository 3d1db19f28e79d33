// Command enginebench is the engine's benchmark: three closed-loop
// workloads (read-mix, write-oltp, mixed) over one seeded 16,000-row
// company database, with output checks on every statement.
//
//	go run . --workload read-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced slices of the run, and reports the
// per-layer metrics, writing every span as Chrome trace JSON into the
// work directory. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. It exits non-zero when
// any statement fails or any output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	extra "repro"
)

const (
	setupRounds = 5 // set-ups per run; setup_s is their median
	walSync     = "group"
	traceRing   = 4096 // engine trace ring; drained every pollEvery
	pollEvery   = 5 * time.Millisecond
	// traceSlices is how many slices a traced run is cut into, untraced
	// and traced in the order U T T U, so that a steady drift of the
	// host's speed weighs on both kinds alike.
	traceSlices = 20
	// soloShare is the length of the single-session slice that
	// attributes buffer-pool traffic on a 2-session workload, as a share
	// of --seconds.
	soloShare = 0.1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "read-mix, write-oltp or mixed")
	seed := fs.Int64("seed", 1, "seed of the dataset and of every session's statement stream")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for WAL files and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, workdir: *workdir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.spec, found = w, true
		}
	}
	if !found || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "enginebench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	rep, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "enginebench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "check failed:", e)
	}
	keep := endToEnd
	if cfg.trace {
		keep = perLayer
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]jsonValue{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "metric %-40s %.6g %s\n", m.name, m.value, m.unit)
		if keep[m.name] {
			out.Metrics[m.name] = jsonValue{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "enginebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name the metrics of the result line of an
// untraced and a traced run; BENCHMARK.json lists the same names.
var endToEnd = set("setup_s", "ops_per_s", "stmt_p50_ms", "stmt_p99_ms", "read_p50_ms")

var perLayer = set(
	"parse.us_per_stmt", "check.us_per_stmt", "plan.us_per_stmt", "compile.us_per_stmt", "execute.us_per_stmt",
	"plan.cache_hit_ratio", "lookup.rows_examined_per_row", "literal.rows_examined_per_row",
	"deref.cache_hit_ratio", "join.hash_probes_per_stmt",
	"write.unattributed_share", "object.append_cost_ratio",
	"storage.pool_accesses_per_write", "storage.pool_accesses_per_append", "storage.pool_accesses_per_small_write",
	"storage.pool_evictions_per_write", "storage.pool_accesses_per_read",
	"wal.commits_per_fsync", "wal.bytes_per_write",
	"setup.load_s", "setup.index_s", "checkpoint_ms", "trace.overhead_pct",
	"self.bench_us_per_op", "self.statement_us_per_stmt", "self.execute_us_per_stmt", "self.operator_us_per_stmt",
	"read_p99_ms", "lookup_p50_ms", "adhoc_p50_ms", "write_p50_ms", "write_p99_ms", "append_p50_ms", "small_write_p50_ms",
	"share.lookup", "share.literal", "share.refchase", "share.aggregate", "share.kids", "share.adhoc",
	"share.append", "share.replace", "share.delete", "share.small_write")

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	metrics           []metric
	attempted, failed int
	errs              []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// counters is one reading of everything the engine exports that the
// per-layer metrics difference.
type counters struct {
	m        extra.MetricsSnapshot
	fsyncs   uint64
	walBytes int64
}

func readCounters(db *extra.DB, walDir string) counters {
	return counters{m: db.MetricsSnapshot(), fsyncs: db.WALFsyncs(), walBytes: dirBytes(walDir)}
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir) // a missing directory holds no bytes
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// phase is one timed stretch of the closed loop, or several merged.
type phase struct {
	elapsed     time.Duration
	lat         [numClasses][]time.Duration
	windows     [][2]counters // counters before and after each stretch
	spans       spanLog
	pool, evict [numClasses]uint64
	poolN       [numClasses]int
}

// rate is statements completed per second.
func (p *phase) rate() float64 {
	return ratio(float64(p.count(allClasses...)), p.elapsed.Seconds())
}

func (p *phase) count(cs ...class) int {
	n := 0
	for _, c := range cs {
		n += len(p.lat[c])
	}
	return n
}

// grew sums how much a counter reading grew over the phase's stretches.
func (p *phase) grew(f func(counters) float64) float64 {
	n := 0.0
	for _, w := range p.windows {
		n += f(w[1]) - f(w[0])
	}
	return n
}

// absorb merges q into p.
func (p *phase) absorb(q *phase) {
	p.elapsed += q.elapsed
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], q.lat[c]...)
		p.pool[c] += q.pool[c]
		p.evict[c] += q.evict[c]
		p.poolN[c] += q.poolN[c]
	}
	p.windows = append(p.windows, q.windows...)
	p.spans = append(p.spans, q.spans...)
}

// runPhase runs every worker's closed loop for d and gathers what they
// recorded. With record set each worker also takes buffer-pool readings
// and a span around every statement.
func runPhase(db *extra.DB, walDir string, workers []*worker, d time.Duration, record bool) *phase {
	p := &phase{}
	before := readCounters(db, walDir)
	for _, w := range workers {
		w.samples, w.spans, w.record = w.samples[:0], nil, record
		w.poolDelta, w.poolEvict, w.poolCount = [numClasses]uint64{}, [numClasses]uint64{}, [numClasses]int{}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.runUntil(deadline)
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.windows = [][2]counters{{before, readCounters(db, walDir)}}
	for _, w := range workers {
		for _, s := range w.samples {
			p.lat[s.c] = append(p.lat[s.c], s.dur)
		}
		p.spans = append(p.spans, w.spans...)
		for c := range p.pool {
			p.pool[c] += w.poolDelta[c]
			p.evict[c] += w.poolEvict[c]
			p.poolN[c] += w.poolCount[c]
		}
		w.record = false
	}
	return p
}

// tracePoller drains the engine's trace ring while a traced run runs.
type tracePoller struct {
	db     *extra.DB
	seen   map[uint64]bool
	traces []*extra.Trace
	stop   chan struct{}
	done   chan struct{}
}

func startPoller(db *extra.DB) *tracePoller {
	tp := &tracePoller{db: db, seen: map[uint64]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(tp.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-tp.stop:
				tp.drain()
				return
			case <-t.C:
				tp.drain()
			}
		}
	}()
	return tp
}

func (tp *tracePoller) drain() {
	for _, tr := range tp.db.Traces() {
		if !tp.seen[tr.ID] {
			tp.seen[tr.ID] = true
			tp.traces = append(tp.traces, tr)
		}
	}
}

func (tp *tracePoller) finish() []*extra.Trace {
	close(tp.stop)
	<-tp.done
	return tp.traces
}

type setupTimes struct{ total, load, index time.Duration }

// setupDB opens a database with a group-commit WAL in dir, loads the
// dump and builds the unique name index.
func setupDB(dump []byte, dir string, spans *spanLog) (*extra.DB, setupTimes, error) {
	var t setupTimes
	mode, err := extra.ParseWALSyncMode(walSync)
	if err != nil {
		return nil, t, err
	}
	t0 := time.Now()
	db, err := extra.Open(extra.WithWAL(dir), extra.WithWALSync(mode), extra.WithTracing(0, traceRing))
	if err != nil {
		return nil, t, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	if err := db.Load(bytes.NewReader(dump)); err != nil {
		db.Close()
		return nil, t, fmt.Errorf("load: %w", err)
	}
	t2 := time.Now()
	if _, err := db.Exec(qIndex); err != nil {
		db.Close()
		return nil, t, fmt.Errorf("index: %w", err)
	}
	t3 := time.Now()
	if spans != nil {
		root := spans.add(-1, "db", "setup", 0, t0, t3)
		spans.add(root, "db", "DB.Open", 0, t0, t1)
		spans.add(root, "db", "DB.Load", 0, t1, t2)
		spans.add(root, "db", "DDL index", 0, t2, t3)
	}
	return db, setupTimes{total: t3.Sub(t0), load: t2.Sub(t1), index: t3.Sub(t2)}, nil
}

func bench(cfg config, stdout io.Writer) (*report, error) {
	rep := &report{}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workdir, cfg.spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	data := Generate(cfg.seed, numDepts, numEmps)
	var dump bytes.Buffer
	if err := data.WriteDump(&dump); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%v sessions=%d wal_sync=%s depts=%d emps=%d kids=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace, cfg.spec.sessions, walSync, numDepts, numEmps, data.Kids(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var spans spanLog
	var setupSpans *spanLog
	if cfg.trace {
		setupSpans = &spans
	}
	var total, load, index []float64
	var db *extra.DB
	var walDir string
	for i := 0; i < setupRounds; i++ {
		if db != nil {
			db.Close()
		}
		runtime.GC()
		walDir = filepath.Join(work, fmt.Sprintf("wal-%d", i))
		var t setupTimes
		if db, t, err = setupDB(dump.Bytes(), walDir, setupSpans); err != nil {
			return nil, err
		}
		total = append(total, t.total.Seconds())
		load = append(load, t.load.Seconds())
		index = append(index, t.index.Seconds())
	}
	defer db.Close()
	rep.add("setup_s", median(total), "s")

	exp := newExpect(data, cfg.spec.sessions)
	workers := make([]*worker, cfg.spec.sessions)
	for i := range workers {
		if workers[i], err = newWorker(i, cfg.spec, db, exp, cfg.seed); err != nil {
			return nil, err
		}
		defer workers[i].close()
	}

	secs := time.Duration(cfg.seconds * float64(time.Second))
	runPhase(db, walDir, workers, min(secs/10, 2*time.Second), false) // warm-up
	if !cfg.trace {
		p := runPhase(db, walDir, workers, secs, false)
		endToEndMetrics(rep, p)
	} else {
		// Untraced and traced slices do the same benchmark-side
		// bookkeeping, so trace.overhead_pct is the engine's tracing
		// alone; only the traced slices' spans are kept.
		plain, traced := &phase{}, &phase{}
		tp := startPoller(db)
		for i := 0; i < traceSlices; i++ {
			on := i%4 == 1 || i%4 == 2
			if on {
				db.SetTraceSampling(1)
			}
			p := runPhase(db, walDir, workers, secs/traceSlices, true)
			db.SetTraceSampling(0)
			if on {
				traced.absorb(p)
			} else {
				plain.absorb(p)
			}
		}
		traces := tp.finish()
		// Per-statement buffer-pool readings are global counters, so on a
		// 2-session workload they come from a slice one session runs alone.
		pool := traced
		if len(workers) > 1 {
			pool = runPhase(db, walDir, workers[:1], time.Duration(soloShare*float64(secs)), true)
		}

		t0 := time.Now()
		if err := db.Checkpoint(); err != nil {
			rep.attempted++
			rep.failed++
			rep.errs = append(rep.errs, "checkpoint: "+err.Error())
		}
		t1 := time.Now()
		spans = append(spans, traced.spans...)
		spans.add(-1, "db", "DB.Checkpoint", 0, t0, t1)

		merged, stmtOf := mergeTraces(spans, traces)
		perLayerMetrics(rep, plain, traced, pool, merged, stmtOf)
		rep.add("setup.load_s", median(load), "s")
		rep.add("setup.index_s", median(index), "s")
		rep.add("checkpoint_ms", ms(t1.Sub(t0)), "ms")

		chrome := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s.json", cfg.spec.name))
		if err := writeChrome(chrome, merged); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		fmt.Fprintf(stdout, "# chrome trace: %s (%d spans, %d engine traces)\n", chrome, len(merged), len(traces))
		printSelf(stdout, merged)
		tracedMatchesUntraced(db, exp, rep)
	}
	for _, w := range workers {
		rep.attempted += w.attempted
		rep.failed += w.failed
		rep.errs = append(rep.errs, w.errs...)
	}
	endChecks(db, exp, workers, rep)
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of ds in milliseconds (0 for
// no samples).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return ms(s[k-1])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p *phase) lats(cs ...class) []time.Duration {
	var out []time.Duration
	for _, c := range cs {
		out = append(out, p.lat[c]...)
	}
	return out
}

var (
	readClasses  = []class{cLookup, cLiteral, cRefChase, cAggregate, cKids, cAdhoc}
	writeClasses = []class{cAppend, cReplace, cDelete, cSmall}
	allClasses   = append(append([]class(nil), readClasses...), writeClasses...)
)

func endToEndMetrics(rep *report, p *phase) {
	rep.add("ops_per_s", p.rate(), "1/s")
	rep.add("stmt_p50_ms", quantile(p.lats(allClasses...), 0.5), "ms")
	rep.add("stmt_p99_ms", quantile(p.lats(allClasses...), 0.99), "ms")
	rep.add("read_p50_ms", quantile(p.lats(readClasses...), 0.5), "ms")
	classMetrics(rep, p)
}

// classMetrics reports the latencies of the statement classes that not
// every workload runs (0 where it runs none), each class's sample count
// and its share of the time the sessions spent in statements.
func classMetrics(rep *report, p *phase) {
	rep.add("read_p99_ms", quantile(p.lats(readClasses...), 0.99), "ms")
	rep.add("lookup_p50_ms", quantile(p.lat[cLookup], 0.5), "ms")
	rep.add("adhoc_p50_ms", quantile(p.lat[cAdhoc], 0.5), "ms")
	rep.add("write_p50_ms", quantile(p.lats(writeClasses...), 0.5), "ms")
	rep.add("write_p99_ms", quantile(p.lats(writeClasses...), 0.99), "ms")
	rep.add("append_p50_ms", quantile(p.lat[cAppend], 0.5), "ms")
	rep.add("small_write_p50_ms", quantile(p.lat[cSmall], 0.5), "ms")
	var busy [numClasses]time.Duration
	var total time.Duration
	for c, ds := range p.lat {
		for _, d := range ds {
			busy[c] += d
		}
		total += busy[c]
	}
	for c := class(0); c < numClasses; c++ {
		rep.add("samples."+classNames[c], float64(len(p.lat[c])), "count")
		rep.add("share."+classNames[c], ratio(float64(busy[c]), float64(total)), "ratio")
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics derives the per-layer metrics: counters from the
// traced slices, spans merged with the engine's statement traces,
// buffer-pool readings from the pool phase, and latencies of the
// untraced slices, which also give the tracing overhead.
func perLayerMetrics(rep *report, plain, traced, pool *phase, spans spanLog, stmtOf []int) {
	d := func(name string) float64 {
		return traced.grew(func(c counters) float64 { return float64(c.m.Counters[name]) })
	}
	hist := func(name string, sum bool) float64 {
		return traced.grew(func(c counters) float64 {
			if sum {
				return float64(c.m.Histograms[name].SumNS)
			}
			return float64(c.m.Histograms[name].Count)
		})
	}
	stmts := hist("stmt.latency", false)
	for _, ph := range []string{"parse", "check", "plan", "compile", "execute"} {
		rep.add(ph+".us_per_stmt", ratio(hist("phase."+ph, true)/1e3, stmts), "us")
	}
	rep.add("plan.cache_hit_ratio", ratio(d("plan.cache.hits"), d("plan.cache.hits")+d("plan.cache.misses")), "ratio")
	rep.add("deref.cache_hit_ratio", ratio(d("deref.cache.hits"), d("deref.cache.hits")+d("deref.cache.misses")), "ratio")
	rep.add("join.hash_probes_per_stmt", ratio(d("join.hash.probes"), stmts), "count")

	// Operator actuals and phase coverage from the statement traces
	// matched to the benchmark's own spans.
	var examined, rows [numClasses]float64
	var phaseSum, wall float64
	for i, root := range stmtOf {
		if root < 0 {
			continue
		}
		c := classOf(spans[i].name)
		if c == numClasses {
			continue
		}
		rows[c] += float64(attrInt(&spans[root], "rows"))
		for j := root + 1; j < len(spans) && spans[j].parent >= root; j++ {
			switch spans[j].cat {
			case "operator":
				examined[c] += float64(attrInt(&spans[j], "rows_in"))
			case "phase":
				if c.write() {
					phaseSum += float64(spans[j].dur())
				}
			}
		}
		if c.write() {
			wall += float64(spans[i].dur())
		}
	}
	rep.add("lookup.rows_examined_per_row", ratio(examined[cLookup], rows[cLookup]), "rows")
	rep.add("literal.rows_examined_per_row", ratio(examined[cLiteral], rows[cLiteral]), "rows")
	unattributed := 0.0
	if wall > 0 {
		unattributed = 1 - phaseSum/wall
	}
	rep.add("write.unattributed_share", unattributed, "ratio")
	rep.add("object.append_cost_ratio", ratio(quantile(plain.lat[cAppend], 0.5), quantile(plain.lat[cSmall], 0.5)), "ratio")

	sumOf := func(a *[numClasses]uint64, cs ...class) float64 {
		n := 0.0
		for _, c := range cs {
			n += float64(a[c])
		}
		return n
	}
	countOf := func(cs ...class) float64 {
		n := 0
		for _, c := range cs {
			n += pool.poolN[c]
		}
		return float64(n)
	}
	rep.add("storage.pool_accesses_per_write", ratio(sumOf(&pool.pool, writeClasses...), countOf(writeClasses...)), "count")
	rep.add("storage.pool_accesses_per_append", ratio(sumOf(&pool.pool, cAppend), countOf(cAppend)), "count")
	rep.add("storage.pool_accesses_per_small_write", ratio(sumOf(&pool.pool, cSmall), countOf(cSmall)), "count")
	rep.add("storage.pool_evictions_per_write", ratio(sumOf(&pool.evict, writeClasses...), countOf(writeClasses...)), "count")
	rep.add("storage.pool_accesses_per_read", ratio(sumOf(&pool.pool, readClasses...), countOf(readClasses...)), "count")

	writes := float64(traced.count(writeClasses...))
	fsyncs := traced.grew(func(c counters) float64 { return float64(c.fsyncs) })
	walBytes := traced.grew(func(c counters) float64 { return float64(c.walBytes) })
	rep.add("wal.commits_per_fsync", ratio(writes, fsyncs), "ratio")
	rep.add("wal.bytes_per_write", ratio(walBytes, writes), "bytes")

	rep.add("trace.overhead_pct", 100*ratio(plain.rate()-traced.rate(), plain.rate()), "%")

	self := selfTimes(spans)
	var bench, stmt, exec, op float64
	var nBench, nStmt float64
	for i, s := range spans {
		us := float64(self[i].Nanoseconds()) / 1e3
		switch {
		case s.cat == "bench":
			bench += us
			nBench++
		case s.cat == "statement":
			stmt += us
			nStmt++
		case s.cat == "phase" && s.name == "execute":
			exec += us
		case s.cat == "operator":
			op += us
		}
	}
	rep.add("self.bench_us_per_op", ratio(bench, nBench), "us")
	rep.add("self.statement_us_per_stmt", ratio(stmt, nStmt), "us")
	rep.add("self.execute_us_per_stmt", ratio(exec, nStmt), "us")
	rep.add("self.operator_us_per_stmt", ratio(op, nStmt), "us")
	classMetrics(rep, plain)
}

func classOf(name string) class {
	for c, n := range classNames {
		if n == name {
			return class(c)
		}
	}
	return numClasses
}

func printSelf(w io.Writer, spans spanLog) {
	for _, l := range summarizeSelf(spans, selfTimes(spans)) {
		name := l.cat
		if l.name != "" {
			name += "/" + l.name
		}
		fmt.Fprintf(w, "# self %-28s n=%-7d total_ms=%.3f\n", name, l.n, ms(l.self))
	}
}
