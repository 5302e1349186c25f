package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mogis/internal/core"
	"mogis/internal/fo"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// bucketRow is one labelled bucket of a grouped count.
type bucketRow struct {
	label string
	n     int
}

// referenceBuckets is the grouped-count loop Piet-QL evaluated GROUP
// BY with before the engine had a bucketed entry point, kept as the
// oracle: every LIT against every polygon for interpolated semantics,
// a full scan with a point-in-polygon test per row for sampled
// semantics, one object set per Rollup label. Rows come back sorted
// by label with the distinct-object total.
func referenceBuckets(t testing.TB, mctx *fo.Context, table string, polys []geom.Polygon, window timedim.Interval, cat timedim.Category, sampled bool) ([]bucketRow, int) {
	t.Helper()
	bucketWidth := int64(timedim.SecondsPerHour)
	if cat == timedim.CatDay {
		bucketWidth = timedim.SecondsPerDay
	}
	truncate := func(t timedim.Instant) timedim.Instant {
		if cat == timedim.CatDay {
			return t.TruncateDay()
		}
		return t.TruncateHour()
	}

	perBucket := make(map[string]map[moft.Oid]bool)
	contributing := make(map[moft.Oid]bool)
	mark := func(oid moft.Oid, t timedim.Instant) {
		label, _ := timedim.Rollup(cat, t)
		if perBucket[label] == nil {
			perBucket[label] = make(map[moft.Oid]bool)
		}
		perBucket[label][oid] = true
		contributing[oid] = true
	}

	if sampled {
		tbl, err := mctx.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		tbl.ScanInterval(window, func(tp moft.Tuple) bool {
			for _, pg := range polys {
				if pg.ContainsPoint(tp.Point()) {
					mark(tp.Oid, tp.T)
					break
				}
			}
			return true
		})
	} else {
		lits, err := core.New(mctx).Trajectories(context.Background(), table)
		if err != nil {
			t.Fatal(err)
		}
		for oid, lit := range lits {
			for _, pg := range polys {
				for _, iv := range lit.InsidePolygonIntervals(pg) {
					lo, hi := iv.Lo, iv.Hi
					if lo < float64(window.Lo) {
						lo = float64(window.Lo)
					}
					if hi > float64(window.Hi) {
						hi = float64(window.Hi)
					}
					if hi < lo {
						continue
					}
					for b := truncate(timedim.Instant(lo)); float64(b) <= hi; b += timedim.Instant(bucketWidth) {
						mark(oid, b)
					}
				}
			}
		}
	}

	var rows []bucketRow
	for label, objs := range perBucket {
		rows = append(rows, bucketRow{label, len(objs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	return rows, len(contributing)
}

// bucketCase is one grouped query: a table and polygon set under a
// model context.
type bucketCase struct {
	name  string
	mctx  *fo.Context
	table string
	layer string
	ids   []layer.Gid
}

// polygons resolves the case's polygon ids.
func (c bucketCase) polygons(t testing.TB) []geom.Polygon {
	t.Helper()
	l, ok := c.mctx.GIS().Layer(c.layer)
	if !ok {
		t.Fatalf("no layer %q", c.layer)
	}
	var out []geom.Polygon
	for _, id := range c.ids {
		pg, ok := l.Polygon(id)
		if !ok {
			t.Fatalf("layer %q has no polygon %d", c.layer, id)
		}
		out = append(out, pg)
	}
	return out
}

// windows returns the full, narrow, disjoint and inverted windows
// over the case's table.
func (c bucketCase) windows(t testing.TB) map[string]timedim.Interval {
	t.Helper()
	tbl, err := c.mctx.Table(c.table)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := tbl.TimeSpan()
	if !ok {
		t.Fatal("empty table")
	}
	third := (hi - lo) / 3
	return map[string]timedim.Interval{
		"full":     {Lo: lo, Hi: hi},
		"narrow":   {Lo: lo + third, Hi: hi - third},
		"disjoint": {Lo: hi + 1000, Hi: hi + 5000},
		"inverted": {Lo: hi, Hi: lo},
	}
}

// cityBucketCase builds a generated city with a trajectory table whose
// sampling step spans several hours (or days) of buckets, querying a
// random subset of its neighborhood polygons.
func cityBucketCase(t testing.TB, seed int64, objects, samples int, step int64) bucketCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	city := workload.GenCity(workload.CityConfig{Seed: seed, Cols: 3, Rows: 3})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed:    seed*17 + 1,
		Objects: objects,
		Samples: samples,
		Step:    step,
		Start:   timedim.At(2006, 1, 9, 5, 0) + timedim.Instant(rng.Int63n(7200)),
	})
	mctx, _ := city.Context(fm)
	return bucketCase{
		name: fmt.Sprintf("city-seed%d-step%d", seed, step), mctx: mctx,
		table: "FM", layer: "Ln", ids: randomIDs(rng, city.Ln),
	}
}

// randomIDs picks one to three distinct polygon ids of l.
func randomIDs(rng *rand.Rand, l *layer.Layer) []layer.Gid {
	all := l.IDs(layer.KindPolygon)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:1+rng.Intn(min(3, len(all)))]
}

// bucketConfig is one engine configuration the bucketed query must
// answer identically under.
type bucketConfig struct {
	grid, timeBuckets, intervalCap, workers int
}

func (c bucketConfig) String() string {
	return fmt.Sprintf("grid%d-tb%d-icap%d-w%d", c.grid, c.timeBuckets, c.intervalCap, c.workers)
}

// engine builds a fresh engine over mctx in this configuration, with
// grid verify mode on so a fast/slow divergence also counts.
func (c bucketConfig) engine(mctx *fo.Context) (*core.Engine, *obs.Metrics) {
	eng := core.New(mctx)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	eng.SetAggGrid(c.grid)
	eng.SetTimeBuckets(c.timeBuckets)
	eng.SetIntervalCacheCap(c.intervalCap)
	eng.SetWorkers(c.workers)
	return eng, met
}

// bucketConfigs sweeps grid on/off, the time-bucket settings, the
// interval cache off/default and serial/default workers.
func bucketConfigs() []bucketConfig {
	var out []bucketConfig
	for _, grid := range []int{0, -1} {
		tbs := []int{1, 16, 256, 0, -1}
		if grid < 0 {
			tbs = []int{0}
		}
		for _, tb := range tbs {
			for _, icap := range []int{0, 256} {
				for _, w := range []int{1, 0} {
					out = append(out, bucketConfig{grid, tb, icap, w})
				}
			}
		}
	}
	return out
}

// checkBuckets runs one grouped query and compares it with the
// reference loop: same labelled rows in the same order, same total.
func checkBuckets(t testing.TB, eng core.Querier, c bucketCase, iv timedim.Interval, cat timedim.Category, sampled bool) {
	t.Helper()
	buckets, total, err := eng.CountPassingThroughBuckets(context.Background(), c.table, c.layer, c.ids, iv, cat, sampled)
	if err != nil {
		t.Fatalf("%s %v %s sampled=%v: %v", c.name, iv, cat, sampled, err)
	}
	var got []bucketRow
	for i, b := range buckets {
		if i > 0 && buckets[i-1].Start >= b.Start {
			t.Fatalf("buckets not sorted by start: %v", buckets)
		}
		label, _ := timedim.Rollup(cat, b.Start)
		got = append(got, bucketRow{label, b.Objects})
	}
	want, wantTotal := referenceBuckets(t, c.mctx, c.table, c.polygons(t), iv, cat, sampled)
	if fmt.Sprint(got) != fmt.Sprint(want) || total != wantTotal {
		t.Fatalf("%s %v %s sampled=%v:\n got %v total %d\nwant %v total %d",
			c.name, iv, cat, sampled, got, total, want, wantTotal)
	}
}

// TestBucketsMatchReference: CountPassingThroughBuckets answers every
// grouped query bit-identically to the reference loop — both
// semantics, hour and day buckets, full/narrow/disjoint/inverted
// windows — under every grid, temporal-index, interval-cache and
// worker configuration, on the paper's Table-1 scenario and on
// generated workloads.
func TestBucketsMatchReference(t *testing.T) {
	s := scenario.New()
	cases := []bucketCase{
		{name: "paper-all", mctx: s.Ctx, table: "FMbus", layer: "Ln", ids: s.Ln.IDs(layer.KindPolygon)},
		{name: "paper-dam-berchem", mctx: s.Ctx, table: "FMbus", layer: "Ln", ids: []layer.Gid{scenario.PgDam, scenario.PgBerchem}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		w, _ := newRandomWorkload(t, seed)
		mctx := w.eng.Context()
		l, _ := mctx.GIS().Layer("Ln")
		cases = append(cases, bucketCase{
			name: fmt.Sprintf("random-seed%d", seed), mctx: mctx, table: "FM", layer: "Ln",
			ids: randomIDs(rand.New(rand.NewSource(seed)), l),
		})
	}
	cases = append(cases,
		cityBucketCase(t, 4, 48, 30, 420),
		cityBucketCase(t, 5, 40, 24, 5400),
	)
	for _, cfg := range bucketConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			for _, c := range cases {
				eng, met := cfg.engine(c.mctx)
				eng.SetGridVerify(true)
				for _, iv := range c.windows(t) {
					for _, cat := range []timedim.Category{timedim.CatHour, timedim.CatDay} {
						for _, sampled := range []bool{false, true} {
							checkBuckets(t, eng, c, iv, cat, sampled)
						}
					}
				}
				if n := met.AggGridMismatches.Value(); n != 0 {
					t.Errorf("%s: %d grid/scan mismatches", c.name, n)
				}
			}
		})
	}
}

// TestBucketsRejectsCategory: only hour and day buckets are supported.
func TestBucketsRejectsCategory(t *testing.T) {
	s := scenario.New()
	_, _, err := s.Engine.CountPassingThroughBuckets(context.Background(), "FMbus", "Ln",
		[]layer.Gid{scenario.PgDam}, timedim.Interval{Lo: 0, Hi: 1 << 40}, timedim.CatMonth, false)
	if err == nil {
		t.Fatal("month buckets accepted")
	}
}

// FuzzBuckets holds the TestBucketsMatchReference invariant over
// generated tables, windows and engine configurations.
func FuzzBuckets(f *testing.F) {
	f.Add(int64(1), uint16(60), int32(0), int32(3600), uint8(0))
	f.Add(int64(2), uint16(900), int32(-500), int32(90000), uint8(0xff))
	f.Add(int64(3), uint16(4000), int32(7000), int32(100), uint8(0x5a))
	f.Fuzz(func(t *testing.T, seed int64, step uint16, lo, hi int32, flags uint8) {
		c := cityBucketCase(t, seed, 8+int(uint64(seed)%24), 6+int(step%20), 30+int64(step%7200))
		tbl, err := c.mctx.Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		tmin, _, _ := tbl.TimeSpan()
		iv := timedim.Interval{Lo: tmin + timedim.Instant(lo), Hi: tmin + timedim.Instant(hi)}
		cfgs := bucketConfigs()
		cfg := cfgs[int(flags>>2)%len(cfgs)]
		eng, met := cfg.engine(c.mctx)
		eng.SetGridVerify(true)
		cat := timedim.CatHour
		if flags&1 != 0 {
			cat = timedim.CatDay
		}
		checkBuckets(t, eng, c, iv, cat, flags&2 != 0)
		if n := met.AggGridMismatches.Value(); n != 0 {
			t.Fatalf("%d grid/scan mismatches", n)
		}
	})
}
