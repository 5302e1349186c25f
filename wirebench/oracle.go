package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/pietql"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// answer is the checked part of a /query response: every field of the
// server's JSON body except the request id and the EXPLAIN text.
type answer struct {
	GeoIDs  map[string][]layer.Gid `json:"geo_ids,omitempty"`
	MOCount int                    `json:"mo_count"`
	HasMO   bool                   `json:"has_mo"`
	MOGroup *olap.AggResult        `json:"mo_groups,omitempty"`
	Text    string                 `json:"text"`
}

func answerOf(out *pietql.Outcome) answer {
	return answer{
		GeoIDs: out.GeoIDs, MOCount: out.MOCount, HasMO: out.HasMO,
		MOGroup: out.MOGroups, Text: pietql.FormatOutcome(out),
	}
}

// canonical encodes a with empty id lists dropped, so a nil and an
// empty list compare equal.
func canonical(a answer) []byte {
	ids := make(map[string][]layer.Gid, len(a.GeoIDs))
	for name, l := range a.GeoIDs {
		if len(l) > 0 {
			ids[name] = l
		}
	}
	a.GeoIDs = ids
	b, err := json.Marshal(a)
	if err != nil {
		panic(err) // answer holds only marshalable fields
	}
	return b
}

// decodeAnswer parses a /query JSON body.
func decodeAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decoding /query body: %w", err)
	}
	return a, nil
}

// checkAnswer compares a response's answer with the expected one.
func checkAnswer(want []byte, got answer) error {
	if g := canonical(got); !bytes.Equal(want, g) {
		return fmt.Errorf("wrong answer: want %s, got %s", clip(want), clip(g))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..."
	}
	return string(b)
}

// newPerBatch is the number of new objects each ingest batch places
// inside a queried polygon within the original extent; each raises the
// visibility query's count by one.
const newPerBatch = 3

// oracle holds the expected answers, computed at setup on a scan-path
// System built from the same city seed.
type oracle struct {
	// want maps a shape name to its canonical expected answer.
	want map[string][]byte
	// visBase is the visibility query's count on the base table, and
	// visGeo its geo part.
	visBase int
	visGeo  map[string][]layer.Gid
	// target is the neighbourhood the ingest plan places new objects in.
	target geom.Polygon
	// polygons is the number of neighbourhoods the geo part selects.
	polygons int
	// rows is the base table size.
	rows int
}

// newOracle computes, on the scan-path System sys, the expected answer
// of every shape of w and of the visibility query, and returns the
// ingest plan built from the same base table.
func newOracle(sys *pietql.System, seed int64, w workload) (*oracle, *ingestPlan, error) {
	o := &oracle{want: map[string][]byte{}}
	for _, sh := range append([]shape{visibleShape}, w.round...) {
		var out *pietql.Outcome
		var err error
		if sh.perHour != nil {
			out, err = groupedWant(sys, sh)
		} else {
			out, err = sys.Run(context.Background(), sh.text)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: shape %s: %w", sh.name, err)
		}
		o.want[sh.name] = canonical(answerOf(out))
		if sh.name == visibleShape.name {
			o.visBase, o.visGeo = out.MOCount, out.GeoIDs
		}
	}
	ids := o.visGeo["Ln"]
	o.polygons = len(ids)
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("oracle: geo part selects no neighbourhood")
	}
	tbl, err := sys.Ctx.Table(table)
	if err != nil {
		return nil, nil, err
	}
	o.rows = tbl.Len()
	lyr, _ := sys.Ctx.GIS().Layer("Ln")
	o.target, _ = lyr.Polygon(ids[0])
	plan, err := newIngestPlan(seed, tbl, o.target)
	if err != nil {
		return nil, nil, err
	}
	return o, plan, nil
}

// groupedWant derives the answer of a GROUP BY hour shape from its
// ungrouped form, so that the grouping code is checked rather than
// reused: the total is the ungrouped count over the table's extent,
// and each hour's row is the ungrouped count DURING that hour, clipped
// to the extent. Hours that count no object have no row.
func groupedWant(sys *pietql.System, sh shape) (*pietql.Outcome, error) {
	ctx := context.Background()
	out, err := sys.Run(ctx, sh.perHour(""))
	if err != nil {
		return nil, err
	}
	tbl, err := sys.Ctx.Table(table)
	if err != nil {
		return nil, err
	}
	lo, hi, ok := tbl.TimeSpan()
	if !ok {
		return nil, fmt.Errorf("empty table")
	}
	groups := &olap.AggResult{GroupCols: []string{string(timedim.CatHour)}}
	for h := lo.TruncateHour(); h <= hi; h += timedim.SecondsPerHour {
		from, to := max(h, lo), min(h+timedim.SecondsPerHour-1, hi)
		hour, err := sys.Run(ctx, sh.perHour(fmt.Sprintf(" DURING '%s' TO '%s'", from, to)))
		if err != nil {
			return nil, err
		}
		if n := hour.MOCount; n > 0 {
			label, _ := timedim.Rollup(timedim.CatHour, h)
			groups.Rows = append(groups.Rows, olap.AggResultRow{
				Group: []olap.Member{olap.Member(label)}, Value: float64(n), N: int64(n),
			})
		}
	}
	out.MOGroups = groups
	return out, nil
}

// visibleWant is the expected answer of the visibility query once
// batches batches have been applied.
func (o *oracle) visibleWant(batches int) []byte {
	out := &pietql.Outcome{GeoIDs: o.visGeo, MOCount: o.visBase + newPerBatch*batches, HasMO: true}
	return canonical(answerOf(out))
}

// checkVisible checks a visibility-query answer under concurrent
// ingest: it must equal the answer after j batches for some j with
// lo <= j <= hi, where lo counts the batches acked before the query
// was sent and hi the batches sent before its response arrived (any of
// those may already be applied). It returns j.
func (o *oracle) checkVisible(got answer, lo, hi int) (int, error) {
	d := got.MOCount - o.visBase
	if d < 0 || d%newPerBatch != 0 || d/newPerBatch < lo || d/newPerBatch > hi {
		return 0, fmt.Errorf("wrong answer: count %d, want %d + %d*j for %d <= j <= %d",
			got.MOCount, o.visBase, newPerBatch, lo, hi)
	}
	j := d / newPerBatch
	return j, checkAnswer(o.visibleWant(j), got)
}

// verifyIngested rebuilds the scan-path System, applies the acked
// batches the way /ingest does, and checks that the visibility query
// counts exactly the new objects: the premise of checkVisible. acked
// holds the plan sequence numbers of the acked batches, in order; the
// batches are generated again from a fresh plan with the same seed.
func (o *oracle) verifyIngested(seed int64, tel *telemetry.Collector, acked []int) error {
	if len(acked) == 0 {
		return nil
	}
	sys, err := newScanSystem(seed, tel)
	if err != nil {
		return err
	}
	old, err := sys.Ctx.Table(table)
	if err != nil {
		return err
	}
	plan, err := newIngestPlan(seed, old, o.target)
	if err != nil {
		return err
	}
	next := moft.New(table)
	for _, tp := range old.Tuples() {
		next.AddTuple(tp)
	}
	for _, seq := range acked {
		b := plan.next()
		for b.seq < seq {
			b = plan.next()
		}
		for _, tp := range b.rows {
			next.AddTuple(tp)
		}
	}
	sys.Ctx.AddTable(next)
	sys.Engine.InvalidateTrajectories(table)
	out, err := sys.Run(context.Background(), visibleShape.text)
	if err != nil {
		return fmt.Errorf("oracle: visibility query after %d batches: %w", len(acked), err)
	}
	if got, want := canonical(answerOf(out)), o.visibleWant(len(acked)); !bytes.Equal(got, want) {
		return fmt.Errorf("oracle: after %d batches the scan path answers %s, want %s", len(acked), clip(got), clip(want))
	}
	return nil
}

// batchRows is the size of one /ingest batch.
const batchRows = 500

// batch is one /ingest body, the rows it carries and its sequence
// number in the plan.
type batch struct {
	seq  int
	rows []moft.Tuple
	body []byte
}

// ingestPlan generates the ingest batches from the benchmark seed:
// continuation samples for existing objects after the original extent,
// round-robin over the objects, plus newPerBatch new objects each
// sampled twice inside a queried polygon within the extent.
type ingestPlan struct {
	rng    *rand.Rand
	extent geom.BBox
	span   timedim.Interval
	target geom.Polygon
	oids   []moft.Oid
	last   map[moft.Oid]moft.Tuple
	cursor int
	newOid moft.Oid
	seq    int
}

func newIngestPlan(seed int64, tbl *moft.Table, target geom.Polygon) (*ingestPlan, error) {
	lo, hi, ok := tbl.TimeSpan()
	if !ok {
		return nil, fmt.Errorf("ingest plan: empty table")
	}
	p := &ingestPlan{
		rng:    rand.New(rand.NewSource(seed)),
		extent: tbl.BBox(),
		span:   timedim.Interval{Lo: lo, Hi: hi},
		target: target,
		last:   map[moft.Oid]moft.Tuple{},
	}
	for _, tp := range tbl.Tuples() {
		if prev, seen := p.last[tp.Oid]; !seen || tp.T > prev.T {
			p.last[tp.Oid] = tp
		}
		if tp.Oid >= p.newOid {
			p.newOid = tp.Oid + 1
		}
	}
	for oid := range p.last {
		p.oids = append(p.oids, oid)
	}
	sort.Slice(p.oids, func(i, j int) bool { return p.oids[i] < p.oids[j] })
	want := timedim.Interval{Lo: timedim.At(2006, 1, 9, 6, 0), Hi: timedim.At(2006, 1, 9, 6, 59)}
	if p.span != want {
		return nil, fmt.Errorf("ingest plan: table extent %v..%v, the queries assume %v..%v", lo, hi, want.Lo, want.Hi)
	}
	return p, nil
}

// next generates the following batch.
func (p *ingestPlan) next() batch {
	rows := make([]moft.Tuple, 0, batchRows)
	step := timedim.Instant(60)
	for range newPerBatch {
		oid := p.newOid
		p.newOid++
		t := p.span.Lo + step*timedim.Instant(p.rng.Intn(50))
		a, b := p.pointInTarget(), p.pointInTarget()
		rows = append(rows,
			moft.Tuple{Oid: oid, T: t, X: a.X, Y: a.Y},
			moft.Tuple{Oid: oid, T: t + step, X: b.X, Y: b.Y})
	}
	for len(rows) < batchRows {
		oid := p.oids[p.cursor%len(p.oids)]
		p.cursor++
		prev := p.last[oid]
		x := clamp(prev.X+(p.rng.Float64()*2-1)*60, p.extent.MinX, p.extent.MaxX)
		y := clamp(prev.Y+(p.rng.Float64()*2-1)*60, p.extent.MinY, p.extent.MaxY)
		tp := moft.Tuple{Oid: oid, T: prev.T + step, X: x, Y: y}
		p.last[oid] = tp
		rows = append(rows, tp)
	}
	var body bytes.Buffer
	for _, tp := range rows {
		fmt.Fprintf(&body, "%d,%d,%s,%s\n", tp.Oid, tp.T, ftoa(tp.X), ftoa(tp.Y))
	}
	p.seq++
	return batch{seq: p.seq - 1, rows: rows, body: body.Bytes()}
}

// pointInTarget draws a point strictly inside the target polygon.
func (p *ingestPlan) pointInTarget() geom.Point {
	bb := p.target.BBox()
	for {
		pt := geom.Pt(bb.MinX+p.rng.Float64()*bb.Width(), bb.MinY+p.rng.Float64()*bb.Height())
		if p.target.ContainsPointStrict(pt) {
			return pt
		}
	}
}

func clamp(v, lo, hi float64) float64 { return max(lo, min(hi, v)) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
