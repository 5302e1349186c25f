package agggrid

import (
	"fmt"
	"math/rand"
	"testing"

	"mogis/internal/geom"
	"mogis/internal/moft"
)

// naiveBuckets is the full scan SampledBuckets must reproduce: every
// in-window sample inside pg marks its object in its bucket.
func naiveBuckets(cols *moft.Columns, pgs []geom.Polygon, lo, hi, width int64) *Buckets {
	bk := NewBuckets(width, cols.NumObjects())
	for r := 0; r < cols.Len(); r++ {
		t := cols.T[r]
		if t < lo || t > hi {
			continue
		}
		for _, pg := range pgs {
			if pg.ContainsPoint(geom.Pt(cols.X[r], cols.Y[r])) {
				bk.Mark(bk.Start(t), cols.Obj[r])
				break
			}
		}
	}
	return bk
}

// TestSampledBucketsIdentity: random polygon sets × random windows ×
// bucket widths narrower and wider than the temporal buckets, across
// forced, adaptive and disabled temporal indexes — the grid's bucket
// sets must equal the naive scan's exactly.
func TestSampledBucketsIdentity(t *testing.T) {
	tbl := randomTable(t, 40, 60, 5)
	cols := tbl.Columns()
	lo, hi, _ := cols.TimeSpan()
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{{TimeBuckets: 1}, {TimeBuckets: 16}, {TimeBuckets: 256}, {}, {TimeBuckets: -1}} {
		g := Build(cols, cfg)
		for _, width := range []int64{7, 60, 600, 3600} {
			for trial := 0; trial < 30; trial++ {
				pgs := []geom.Polygon{randomConvexPolygon(rng)}
				if trial%3 == 0 {
					pgs = append(pgs, randomConvexPolygon(rng))
				}
				wlo, whi := fuzzWindow(rng, int64(lo), int64(hi))
				got := NewBuckets(width, g.NumObjects())
				for _, pg := range pgs {
					g.SampledBuckets(pg, wlo, whi, got, nil)
				}
				want := naiveBuckets(cols, pgs, wlo, whi, width)
				if !got.Equal(want) {
					gs, gc, gn := got.Counts()
					ws, wc, wn := want.Counts()
					t.Fatalf("tb=%d width=%d trial %d [%d,%d]:\n got %v %v %d\nwant %v %v %d",
						cfg.TimeBuckets, width, trial, wlo, whi, gs, gc, gn, ws, wc, wn)
				}
			}
		}
	}
}

// TestBucketsStartAndCounts pins epoch alignment (floor, also below
// zero) and the Counts contract: starts ascending, empty buckets
// omitted, total distinct across buckets.
func TestBucketsStartAndCounts(t *testing.T) {
	bk := NewBuckets(3600, 130)
	for _, c := range []struct{ t, want int64 }{{0, 0}, {3599, 0}, {3600, 3600}, {-1, -3600}, {-3600, -3600}, {-3601, -7200}} {
		if got := bk.Start(c.t); got != c.want {
			t.Errorf("Start(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	bk.Mark(7200, 3)
	bk.Mark(-3600, 129)
	bk.Mark(7200, 129)
	bk.Mark(7200, 3)
	starts, counts, total := bk.Counts()
	if got := fmt.Sprint(starts, counts, total); got != "[-3600 7200] [1 2] 2" {
		t.Errorf("Counts = %s", got)
	}
	if !bk.Has(7200, 129) || bk.Has(3600, 3) || bk.Has(7200, 4) {
		t.Error("Has disagrees with the marks")
	}
}
