package agggrid

import (
	"math/bits"
	"slices"
	"sort"

	"mogis/internal/geom"
	"mogis/internal/obs"
)

// Grouped sample queries ("how many objects were sampled inside pg,
// per hour") keep one object-presence bitset per time bucket. Buckets
// are aligned to the epoch: bucket k covers instants
// [k*width, (k+1)*width), the alignment of timedim's TruncateHour and
// TruncateDay. The grid answers them from the same cover as the
// ungrouped queries: a (cell, time-bucket) presence bitset of an
// interior cell is ORed in whole when its rows lie inside the window
// and inside one group bucket, other interior rows are marked without
// a point-in-polygon test, and boundary rows get the exact test only
// when their object is not already marked in their bucket.
//
// Every function here is a query hot path:
//
//moglint:deterministic

// Buckets is a set of object-presence bitsets keyed by epoch-aligned
// time bucket. Object ordinals index the bits; a bucket exists only
// once an object is marked in it.
type Buckets struct {
	width int64
	words int
	sets  map[int64][]uint64
	// lastStart/last memoize the most recent bucket: rows arrive in
	// time order within a cell, so consecutive marks mostly share one.
	lastStart int64
	last      []uint64
}

// NewBuckets returns an empty bucket set for width-second buckets over
// objects object ordinals. width must be positive.
func NewBuckets(width int64, objects int) *Buckets {
	return &Buckets{width: width, words: (objects + 63) / 64, sets: make(map[int64][]uint64)}
}

// Start returns the start of the bucket holding instant t.
func (b *Buckets) Start(t int64) int64 {
	q := t / b.width
	if t%b.width < 0 {
		q--
	}
	return q * b.width
}

// set returns the bitset of the bucket starting at start, creating it
// if needed.
func (b *Buckets) set(start int64) []uint64 {
	if b.last != nil && start == b.lastStart {
		return b.last
	}
	s, ok := b.sets[start]
	if !ok {
		s = make([]uint64, b.words)
		b.sets[start] = s
	}
	b.lastStart, b.last = start, s
	return s
}

// Has reports whether object ordinal o is marked in the bucket
// starting at start, without creating the bucket.
func (b *Buckets) Has(start int64, o int32) bool {
	s := b.last
	if s == nil || start != b.lastStart {
		s = b.sets[start]
	}
	return s != nil && s[o>>6]&(1<<uint(o&63)) != 0
}

// Mark marks object ordinal o in the bucket starting at start.
func (b *Buckets) Mark(start int64, o int32) {
	s := b.set(start)
	s[o>>6] |= 1 << uint(o&63)
}

// Equal reports whether b and o mark the same objects in the same
// buckets.
func (b *Buckets) Equal(o *Buckets) bool {
	bs, _, _ := b.Counts()
	os, _, _ := o.Counts()
	if len(bs) != len(os) {
		return false
	}
	for i, s := range bs {
		if s != os[i] || !slices.Equal(b.sets[s], o.sets[s]) {
			return false
		}
	}
	return true
}

// Counts returns the non-empty buckets' starts in ascending order with
// each bucket's distinct-object count, and the number of distinct
// objects marked in any bucket.
func (b *Buckets) Counts() (starts []int64, counts []int, total int) {
	for s := range b.sets {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	union := make([]uint64, b.words)
	kept := starts[:0]
	for _, s := range starts {
		n := 0
		for w, x := range b.sets[s] {
			n += bits.OnesCount64(x)
			union[w] |= x
		}
		if n > 0 {
			kept = append(kept, s)
			counts = append(counts, n)
		}
	}
	for _, x := range union {
		total += bits.OnesCount64(x)
	}
	return kept, counts, total
}

// NumObjects returns the object count of the grid's snapshot: the
// ordinal range a Buckets passed to SampledBuckets must cover.
func (g *Grid) NumObjects() int { return g.cols.NumObjects() }

// SampledBuckets marks in bk, in the bucket of each sample's instant,
// every object with a sample inside the closed polygon pg at an
// instant in [lo, hi] — exactly what a full scan with per-sample
// ContainsPoint would mark. bk must have been sized with NumObjects.
// Returns the row-level work done.
func (g *Grid) SampledBuckets(pg geom.Polygon, lo, hi int64, bk *Buckets, met *obs.Metrics) Stats {
	met = metricsOrNop(met)
	cv := g.Cover(pg)
	met.AggGridQueries.Inc()
	met.AggGridInteriorCells.Add(int64(len(cv.Interior)))
	met.AggGridBoundaryCells.Add(int64(len(cv.Boundary)))
	var st Stats
	if g.words == 0 || lo > hi {
		return st
	}
	cols := g.cols
	interior := int64(0)
	if g.nb > 0 {
		met.AggGridTemporalQueries.Inc()
		for _, c := range cv.Interior {
			interior += g.temporalBuckets(c, lo, hi, bk, &st)
		}
		met.AggGridFringeSamples.Add(st.Rows)
	} else {
		for _, c := range cv.Interior {
			for _, row := range g.rows[g.cellStart[c]:g.cellStart[c+1]] {
				st.Rows++
				if t := cols.T[row]; t >= lo && t <= hi {
					bk.Mark(bk.Start(t), cols.Obj[row])
					interior++
				}
			}
		}
	}
	met.AggGridInteriorSamples.Add(interior)
	refined := int64(0)
	for _, c := range cv.Boundary {
		for _, row := range g.boundaryWindow(c, lo, hi, &st) {
			t := cols.T[row]
			if t < lo || t > hi {
				continue
			}
			start, o := bk.Start(t), cols.Obj[row]
			if bk.Has(start, o) {
				continue // already in; skip the exact test
			}
			refined++
			if pg.ContainsPoint(geom.Pt(cols.X[row], cols.Y[row])) {
				bk.Mark(start, o)
			}
		}
	}
	met.AggGridRefinedSamples.Add(refined)
	return st
}

// temporalBuckets marks in bk the objects of interior cell c's rows
// with instant in [lo, hi]. A temporal bucket whose rows all lie in
// the window and in one group bucket contributes its pre-aggregated
// presence bitset; other buckets are marked row by row. Returns the
// number of in-window rows and adds the rows examined to st. Requires
// g.nb > 0.
func (g *Grid) temporalBuckets(c int32, lo, hi int64, bk *Buckets, st *Stats) int64 {
	if lo < g.minT {
		lo = g.minT
	}
	if hi > g.maxT {
		hi = g.maxT
	}
	if lo > hi {
		return 0
	}
	cols := g.cols
	base := int(c) * (g.nb + 1)
	rows := g.cellTRows(c)
	bLo := int((lo - g.minT) / g.bktW)
	bHi := int((hi - g.minT) / g.bktW)
	accepted := int64(0)
	for b := bLo; b <= bHi; b++ {
		blk := rows[g.bktOff[base+b]:g.bktOff[base+b+1]]
		if len(blk) == 0 {
			continue
		}
		// blk is time-sorted, so its first and last rows bound it.
		first, last := cols.T[blk[0]], cols.T[blk[len(blk)-1]]
		if start := bk.Start(first); lo <= first && last <= hi && start == bk.Start(last) {
			dst := bk.set(start)
			src := g.bktPresence[(int(c)*g.nb+b)*g.words : (int(c)*g.nb+b+1)*g.words]
			for w, x := range src {
				dst[w] |= x
			}
			accepted += int64(len(blk))
			continue
		}
		for _, row := range blk {
			st.Rows++
			if t := cols.T[row]; t >= lo && t <= hi {
				bk.Mark(bk.Start(t), cols.Obj[row])
				accepted++
			}
		}
	}
	return accepted
}
