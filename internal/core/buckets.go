package core

import (
	"context"
	"fmt"
	"sort"

	"mogis/internal/agggrid"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// BucketCount is one bucket of a grouped moving-object count: the
// number of distinct objects counted in the epoch-aligned bucket that
// starts at Start.
type BucketCount struct {
	Start   timedim.Instant
	Objects int
}

// bucketWidth returns the width in seconds of a GROUP BY category's
// buckets.
func bucketWidth(cat timedim.Category) (int64, error) {
	switch cat {
	case timedim.CatHour:
		return timedim.SecondsPerHour, nil
	case timedim.CatDay:
		return timedim.SecondsPerDay, nil
	}
	return 0, fmt.Errorf("core: cannot bucket by %q (want hour or day)", cat)
}

// CountPassingThroughBuckets is CountPassingThroughGeometries broken
// down by time bucket (Piet-QL's GROUP BY hour|day): per epoch-aligned
// hour or day bucket of the closed window iv, the number of distinct
// objects passing through at least one of the layer's polygons ids.
// Under interpolated semantics an object counts in every bucket its
// window-clipped inside-interval of any polygon touches; under sampled
// semantics (sampled=true) in the bucket of every in-window sample
// inside a polygon. Buckets come back sorted by start, empty ones
// omitted; total is the number of distinct objects counted in any
// bucket. The interpolated path reuses the prefilter, worker fan-out
// and interval cache of the ungrouped query; the sampled path walks
// the pre-aggregated grid's cover cells, or scans the columns when the
// grid is disabled. Every (bucket, object) pair counts as one result
// against the budget.
//
//moglint:deterministic
func (e *Engine) CountPassingThroughBuckets(ctx context.Context, table, layerName string, ids []layer.Gid, iv timedim.Interval, cat timedim.Category, sampled bool) (buckets []BucketCount, total int, err error) {
	qc, ctx, done := e.begin(ctx, "count_passing_through_buckets", table)
	defer done(&err)
	e.countQuery(7)
	qc.noteWindow(iv)
	width, err := bucketWidth(cat)
	if err != nil {
		return nil, 0, err
	}
	pgs, err := e.layerPolygons(layerName, ids)
	if err != nil {
		return nil, 0, err
	}
	sp := e.mctx.Tracer().Start("buckets")
	defer sp.End()
	var bk *agggrid.Buckets
	if sampled {
		bk, err = e.sampledBuckets(ctx, qc, table, pgs, iv, width)
	} else {
		bk, err = e.passingBuckets(ctx, qc, table, pgs, iv, width)
	}
	if err != nil {
		return nil, 0, err
	}
	starts, counts, total := bk.Counts()
	pairs := 0
	buckets = make([]BucketCount, len(starts))
	for i, s := range starts {
		buckets[i] = BucketCount{Start: timedim.Instant(s), Objects: counts[i]}
		pairs += counts[i]
	}
	if err := qc.addResults(int64(pairs)); err != nil {
		return nil, 0, err
	}
	sp.SetCount("polygons", int64(len(pgs)))
	sp.SetCount("buckets", int64(len(buckets)))
	sp.SetCount("objects", int64(total))
	return buckets, total, nil
}

// layerPolygons resolves polygon ids of a layer.
func (e *Engine) layerPolygons(layerName string, ids []layer.Gid) ([]geom.Polygon, error) {
	l, ok := e.mctx.GIS().Layer(layerName)
	if !ok {
		return nil, fmt.Errorf("core: unknown layer %q", layerName)
	}
	pgs := make([]geom.Polygon, len(ids))
	for i, id := range ids {
		pg, ok := l.Polygon(id)
		if !ok {
			return nil, fmt.Errorf("core: layer %q has no polygon %d", layerName, id)
		}
		pgs[i] = pg
	}
	return pgs, nil
}

// passingBuckets marks, per polygon, every object's inside-intervals
// clipped to iv in each bucket they touch. The intervals come from
// polygonIntervals, so the prefilter, fan-out and interval cache
// serve grouped and ungrouped queries alike.
func (e *Engine) passingBuckets(ctx context.Context, qc *qctl, table string, pgs []geom.Polygon, iv timedim.Interval, width int64) (*agggrid.Buckets, error) {
	tc, err := e.table(ctx, qc, table)
	if err != nil {
		return nil, err
	}
	bk := agggrid.NewBuckets(width, len(tc.oids))
	wlo, whi := float64(iv.Lo), float64(iv.Hi)
	for _, pg := range pgs {
		if err := qc.step(ctx); err != nil {
			return nil, err
		}
		ivmap, err := e.polygonIntervals(ctx, qc, tc, pg)
		if err != nil {
			return nil, err
		}
		scanned := 0
		for oid, ivs := range ivmap {
			if scanned%checkEvery == 0 {
				if err := qc.step(ctx); err != nil {
					return nil, err
				}
			}
			scanned++
			o := int32(sort.Search(len(tc.oids), func(i int) bool { return tc.oids[i] >= oid }))
			for _, ti := range ivs {
				lo, hi := ti.Lo, ti.Hi
				if lo < wlo {
					lo = wlo
				}
				if hi > whi {
					hi = whi
				}
				if hi < lo {
					continue
				}
				// Every bucket the clipped interval overlaps; the start
				// instant truncates toward zero like a timedim.Instant
				// conversion.
				for b := bk.Start(int64(lo)); float64(b) <= hi; b += width {
					bk.Mark(b, o)
				}
			}
		}
	}
	return bk, nil
}

// sampledBuckets marks the objects sampled inside any polygon during
// iv in the bucket of each such sample: through the grid when it is
// enabled (cross-checked against the scan in verify mode), by a
// columnar scan otherwise.
func (e *Engine) sampledBuckets(ctx context.Context, qc *qctl, table string, pgs []geom.Polygon, iv timedim.Interval, width int64) (*agggrid.Buckets, error) {
	tbl, err := e.mctx.Table(table)
	if err != nil {
		return nil, err
	}
	if !e.gridEnabled() {
		return e.sampledBucketsScan(ctx, qc, tbl, pgs, iv, width)
	}
	g, err := e.sampleGrid(ctx, table)
	if err != nil {
		return nil, err
	}
	bk := agggrid.NewBuckets(width, g.NumObjects())
	for _, pg := range pgs {
		if err := qc.step(ctx); err != nil {
			return nil, err
		}
		gst := g.SampledBuckets(pg, int64(iv.Lo), int64(iv.Hi), bk, e.metrics())
		if err := qc.addRows(ctx, gst.Rows); err != nil {
			return nil, err
		}
	}
	if e.gridVerify.Load() {
		slow, err := e.sampledBucketsScan(ctx, qc, tbl, pgs, iv, width)
		if err != nil {
			return nil, err
		}
		if !bk.Equal(slow) {
			e.metrics().AggGridMismatches.Inc()
			return slow, nil
		}
	}
	return bk, nil
}

// sampledBucketsScan is the unaccelerated sampledBuckets: one pass
// over the columnar arrays, testing each in-window sample against the
// polygons unless its object is already marked in its bucket.
func (e *Engine) sampledBucketsScan(ctx context.Context, qc *qctl, tbl *moft.Table, pgs []geom.Polygon, iv timedim.Interval, width int64) (*agggrid.Buckets, error) {
	cols, err := tbl.ColumnsCtx(ctx)
	if err != nil {
		return nil, err
	}
	bk := agggrid.NewBuckets(width, cols.NumObjects())
	lo, hi := int64(iv.Lo), int64(iv.Hi)
	scanned := int64(0)
	defer func() { e.metrics().MOFTTuplesScanned.Add(scanned) }()
	for r := 0; r < cols.Len(); r++ {
		scanned++
		if scanned%checkEvery == 0 {
			if err := qc.addRows(ctx, checkEvery); err != nil {
				return nil, err
			}
		}
		t := cols.T[r]
		if t < lo || t > hi {
			continue
		}
		start, o := bk.Start(t), cols.Obj[r]
		if bk.Has(start, o) {
			continue
		}
		p := geom.Pt(cols.X[r], cols.Y[r])
		for _, pg := range pgs {
			if pg.ContainsPoint(p) {
				bk.Mark(start, o)
				break
			}
		}
	}
	return bk, nil
}
