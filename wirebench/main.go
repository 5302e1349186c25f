// Command wirebench is mogis's end-to-end benchmark. It starts the
// mogisd server in-process through the daemon's own bootstrap
// (server.NewSystem, server.New, Start on a loopback listener), drives
// POST /query and POST /ingest with net/http clients, checks every
// answer against a scan-path oracle, and prints the end-to-end metrics
// or, with --trace 1, the per-layer metrics of a traced run.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash wirebench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the report and spans; "" writes none
	setups   int    // set-ups per run; setup_s is their median
	probe    int    // ingest-probe batches on workloads without a feeder
}

func main() {
	cfg := config{setups: 9, probe: 100}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "interactive", "interactive, groupby or ingest-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the run report and spans")
	flag.Parse()
	cfg.trace = trace == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run produced.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// names orders Metrics for printing.
	names []string
	// Meta and the detail below go to the report file and stderr.
	Meta   meta               `json:"-"`
	Detail map[string]float64 `json:"-"`
}

// meta records the run's settings and the validity of its figures.
type meta struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	CitySeed   int64     `json:"city_seed"`
	Trace      bool      `json:"trace"`
	Seconds    float64   `json:"seconds"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	Clients    int       `json:"clients"`
	Polygons   int       `json:"polygons_per_query"`
	BaseRows   int       `json:"base_rows"`
	EndRows    int       `json:"end_rows"`
	Setups     []float64 `json:"setup_s"`
	// Samples gives the sample count behind each percentile, and
	// Flags each figure whose validity is in doubt.
	Samples map[string]int `json:"samples"`
	Flags   []string       `json:"flags"`
	Errors  []string       `json:"errors"`
	// SpanRequests counts traced requests, SpanTrees those with a
	// complete wire/handler/run tree.
	SpanRequests int `json:"span_requests,omitempty"`
	SpanTrees    int `json:"span_trees,omitempty"`
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.names = append(r.names, name)
}

// pct adds the q-quantile of xs as a metric, recording its sample
// count and flagging it when fewer than ten samples lie beyond it.
func (r *report) pct(name string, xs []float64, q float64, unit string) {
	r.add(name, quantile(xs, q), unit)
	r.Meta.Samples[name] = len(xs)
	if len(xs) == 0 {
		r.Meta.Flags = append(r.Meta.Flags, name+": no samples")
	} else if beyond := len(xs) - int(math.Ceil(q*float64(len(xs)))); beyond < 10 {
		r.Meta.Flags = append(r.Meta.Flags, fmt.Sprintf("%s: %d samples beyond the percentile (of %d)", name, beyond, len(xs)))
	}
}

func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "wirebench workload=%s seed=%d city_seed=%d trace=%t gomaxprocs=%d nproc=%d %s\n",
		r.Meta.Workload, r.Meta.Seed, r.Meta.CitySeed, r.Meta.Trace, r.Meta.GOMAXPROCS, r.Meta.NProc, r.Meta.GoVersion)
	for _, n := range r.names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-28s %14.4f %s", n, m.Value, m.Unit)
		if s, ok := r.Meta.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	details := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		details = append(details, k)
	}
	sort.Strings(details)
	for _, k := range details {
		fmt.Fprintf(w, "  %-40s %12.4f\n", k, r.Detail[k])
	}
	for _, f := range r.Meta.Flags {
		fmt.Fprintln(w, "flag:", f)
	}
	for _, e := range r.Meta.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one benchmark run.
func run(cfg config) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need --seconds > 0")
	}
	// Like mogisd: telemetry is always on and is the default collector.
	tel := telemetry.New(telemetry.Config{})
	telemetry.SetDefault(tel)

	scan, err := newScanSystem(cfg.seed, tel)
	if err != nil {
		return nil, err
	}
	orc, plan, err := newOracle(scan, cfg.seed, w)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: cfg.seed, tel: tel, orc: orc, plan: plan, bodies: map[string][]byte{}}
	for _, sh := range append([]shape{visibleShape}, w.round...) {
		b.bodies[sh.name], _ = json.Marshal(map[string]string{"query": sh.text})
	}
	if cfg.trace {
		b.tr = newTracer()
	}

	rep := &report{Metrics: map[string]metric{}, Detail: map[string]float64{}}
	rep.Meta = meta{
		Workload: w.name, Seed: cfg.seed, CitySeed: citySeed, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Clients: w.clients, Polygons: orc.polygons, BaseRows: orc.rows,
		Samples: map[string]int{}, Flags: []string{}, Errors: []string{},
	}
	conns := w.clients
	if w.feeder {
		conns++
	}
	if conns > runtime.NumCPU() {
		rep.Meta.Flags = append(rep.Meta.Flags, fmt.Sprintf("%d client connections on %d CPUs", conns, runtime.NumCPU()))
	}

	// Set up several times; the last system serves the run.
	for i := range cfg.setups {
		if i > 0 {
			if err := b.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		d, err := b.serve()
		if err != nil {
			b.stop()
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rep.Meta.Setups = append(rep.Meta.Setups, d.Seconds())
	}
	defer b.stop()

	runtime.GC()
	d := time.Duration(cfg.seconds * float64(time.Second))
	measure := func(d time.Duration, traced bool) *phase {
		if w.feeder {
			return b.openLoop(d, traced)
		}
		return b.closedLoop(d, traced)
	}
	if cfg.trace {
		b.traced(rep, cfg, measure, d)
	} else {
		ph := measure(d, false)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		ingest := ph
		if !w.feeder {
			ingest = b.probe(cfg.probe, false)
		}
		rep.add("setup_s", quantile(rep.Meta.Setups, 0.5), "s")
		rep.add("query_qps", float64(ph.queries)/ph.wall.Seconds(), "1/s")
		rep.pct("round_p50_ms", ph.rounds, 0.5, "ms")
		rep.pct("round_p90_ms", ph.rounds, 0.9, "ms")
		rep.pct("ingest_p50_ms", ingest.ingest, 0.5, "ms")
		rep.pct("ingest_p90_ms", ingest.ingest, 0.9, "ms")
		rep.pct("visible_p50_ms", ingest.visible, 0.5, "ms")
		rep.pct("visible_p90_ms", ingest.visible, 0.9, "ms")
		rep.add("heap_mb", float64(ms.HeapInuse)/(1<<20), "MiB")
		b.shapeDetail(rep, ph)
		b.lagDetail(rep, ph)
	}

	if tbl, err := b.sys.Ctx.Table(table); err == nil {
		rep.Meta.EndRows = tbl.Len()
	}
	if err := b.stop(); err != nil {
		rep.Meta.Flags = append(rep.Meta.Flags, "shutdown: "+err.Error())
	}
	// The oracle's end check: the scan path, given every acked batch,
	// must count exactly the new objects.
	if err := orc.verifyIngested(cfg.seed, tel, b.ackedSeq); err != nil {
		b.record(fmt.Errorf("%w: %w", errWrong, err))
	}

	rep.Attempted, rep.Failed = b.attempted.Load(), b.failed.Load()
	rep.Correct = b.wrong.Load() == 0
	rep.Meta.Errors = append(rep.Meta.Errors, b.errs...)
	errRate := float64(rep.Failed) / float64(max(1, rep.Attempted))
	rep.Detail["error_rate"] = errRate
	if !cfg.trace {
		rep.add("success_rate", 1-errRate, "ratio")
	}
	if cfg.out != "" {
		if err := rep.write(cfg, b.tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traced runs the three phases of a traced run. The first half of d is
// untraced: its counter deltas give the per-query ratios, and its round
// latency is the baseline of the tracing overhead. In the next quarter
// only the traced engine records spans, with no replays: its rounds
// against the baseline give the tracing overhead. The last quarter
// replays every request through the layers.
func (b *bench) traced(rep *report, cfg config, measure func(time.Duration, bool) *phase, d time.Duration) {
	before := obs.Default.Snapshot()
	plain := measure(d/2, false)
	delta := obs.Default.Snapshot()
	diff := func(name string) float64 { return delta.Value(name) - before.Value(name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	b.tr.on.Store(true)
	wrapped := measure(d/4, false)
	measure(d/4, true)
	b.tr.on.Store(false)
	if !b.w.feeder {
		b.probe(cfg.probe, true)
	}
	st := b.tr.analyze()
	rep.Meta.SpanRequests, rep.Meta.SpanTrees = st.requests, st.withTree

	lat := func(name string) { rep.pct(name, st.layer[name], 0.5, "ms") }
	queries := float64(plain.queries)
	lat("server.handler_ms")
	lat("server.wire_ms")
	lat("server.overhead_ms")
	rep.add("server.shed", diff("mogis_server_admission_shed_total"), "count")
	rep.add("server.queued", diff("mogis_server_admission_queued_total"), "count")
	lat("pietql.parse_ms")
	lat("pietql.run_ms")
	lat("pietql.geo_ms")
	lat("pietql.group_ms")
	lat("pietql.format_ms")
	lat("mdx.run_ms")
	rep.add("overlay.hit_rate", ratio(diff("mogis_overlay_hits_total"), diff("mogis_overlay_hits_total")+diff("mogis_overlay_misses_total")), "ratio")
	lat("core.count_passing_ms")
	lat("core.sampled_inside_ms")
	lat("core.trajectories_ms")
	rep.add("core.litcache_hit_rate", ratio(diff("mogis_litcache_hits_total"), diff("mogis_litcache_hits_total")+diff("mogis_litcache_misses_total")), "ratio")
	rep.add("core.intervalcache_hit_rate", ratio(diff("mogis_intervalcache_hits_total"), diff("mogis_intervalcache_hits_total")+diff("mogis_intervalcache_misses_total")), "ratio")
	rep.add("core.prefilter_skip_rate", ratio(diff("mogis_prefilter_skipped_total"), diff("mogis_prefilter_skipped_total")+diff("mogis_prefilter_candidates_total")), "ratio")
	rep.add("agggrid.interior_share", ratio(diff("mogis_agggrid_interior_samples_total"), diff("mogis_agggrid_interior_samples_total")+diff("mogis_agggrid_refined_samples_total")), "ratio")
	rep.add("agggrid.builds", diff("mogis_agggrid_builds_total"), "count")
	rep.add("agggrid.temporal_queries", diff("mogis_agggrid_temporal_queries_total"), "count")
	rep.add("geom.pip_per_query", ratio(diff("mogis_geom_point_in_polygon_total"), queries), "count")
	lat("moft.copy_ms")
	if tbl, err := b.sys.Ctx.Table(table); err == nil {
		rep.add("moft.rows", float64(tbl.Len()), "count")
	}
	rep.add("moft.scanned_per_query", ratio(diff("mogis_moft_tuples_scanned_total"), queries), "count")
	rep.add("trace.overhead_ms", quantile(wrapped.rounds, 0.5)-quantile(plain.rounds, 0.5), "ms")
	for _, name := range []string{"request", "handler", "run"} {
		rep.add("self."+name+"_ms", quantile(st.self[name], 0.5), "ms")
	}
	for name, xs := range st.self {
		rep.Detail["self_p50_ms."+name] = quantile(xs, 0.5)
	}
	rep.Detail["trace.untraced_round_p50_ms"] = quantile(plain.rounds, 0.5)
	rep.Detail["trace.engine_traced_round_p50_ms"] = quantile(wrapped.rounds, 0.5)
	b.shapeDetail(rep, plain)
	b.lagDetail(rep, plain)
}

// shapeDetail records the p50 latency of each query shape of a round.
func (b *bench) shapeDetail(rep *report, ph *phase) {
	for _, sh := range b.w.round {
		rep.Detail[fmt.Sprintf("shape.%s.%s.p50_ms", b.w.name, sh.name)] = quantile(ph.shapes[sh.name], 0.5)
	}
}

// lagDetail records how late the open-loop feeder sent, and flags a
// run whose feeder fell a whole period behind.
func (b *bench) lagDetail(rep *report, ph *phase) {
	if !b.w.feeder {
		return
	}
	rep.Detail["loadgen.lag_p90_ms"] = quantile(ph.lag, 0.9)
	for _, l := range ph.lag {
		if l >= float64(batchPeriod.Milliseconds()) {
			rep.Meta.Flags = append(rep.Meta.Flags, fmt.Sprintf("feeder fell %.0f ms behind, a full %v period", l, batchPeriod))
			break
		}
	}
}

// write stores the report and, for a traced run, the spans.
func (r *report) write(cfg config, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace0", cfg.workload, cfg.seed)
	if cfg.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", cfg.workload, cfg.seed)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(cfg.out, "spans-"+base+".jsonl")); err != nil {
			return err
		}
	}
	body, err := json.MarshalIndent(struct {
		*report
		Meta   meta               `json:"meta"`
		Detail map[string]float64 `json:"detail"`
	}{r, r.Meta, r.Detail}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "report-"+base+".json"), body, 0o644)
}

// quantile returns the q-quantile of xs, interpolating linearly
// between closest ranks; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
