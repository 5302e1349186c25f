package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// span is one timed call. Parent 0 marks a root; Request names the
// request span the call belongs to (0 when it cannot be attributed,
// as for engine calls made while serving a wire request).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// ref is the parent a new span attaches to.
type ref struct{ parent, request uint64 }

func (s span) ref() ref { return ref{s.ID, s.Request} }

// tracer keeps finished spans in memory until the run ends. It records
// only while on, so a traced run can measure an untraced phase first.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(r ref, name string) span {
	s := span{ID: t.ids.Add(1), Parent: r.parent, Request: r.request, Name: name}
	s.Start = int64(time.Since(t.epoch))
	return s
}

func (t *tracer) finish(s span) {
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type refKey struct{}

// withRef makes engine calls under ctx children of r.
func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

// tracedEngine records a span around each engine entry point the
// Piet-QL pipeline calls. Engine calls carry the caller's context, so
// calls made by a handler or System.Run the benchmark invoked itself
// attach to its span; calls made while serving a wire request arrive
// under the server's request context and stay unattributed.
type tracedEngine struct {
	core.Querier
	tr *tracer
}

func (e *tracedEngine) start(ctx context.Context, name string) (span, bool) {
	if !e.tr.on.Load() {
		return span{}, false
	}
	r, _ := ctx.Value(refKey{}).(ref)
	return e.tr.begin(r, name), true
}

func (e *tracedEngine) CountPassingThroughGeometries(ctx context.Context, tbl, layerName string, ids []layer.Gid, iv timedim.Interval) (int, error) {
	s, on := e.start(ctx, "core.count_passing")
	n, err := e.Querier.CountPassingThroughGeometries(ctx, tbl, layerName, ids, iv)
	if on {
		e.tr.finish(s)
	}
	return n, err
}

func (e *tracedEngine) ObjectsSampledInside(ctx context.Context, tbl string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	s, on := e.start(ctx, "core.sampled_inside")
	out, err := e.Querier.ObjectsSampledInside(ctx, tbl, pg, iv)
	if on {
		e.tr.finish(s)
	}
	return out, err
}

func (e *tracedEngine) Trajectories(ctx context.Context, tbl string) (map[moft.Oid]*traj.LIT, error) {
	s, on := e.start(ctx, "core.trajectories")
	out, err := e.Querier.Trajectories(ctx, tbl)
	if on {
		e.tr.finish(s)
	}
	return out, err
}

// traceStats is the analysis of a traced run's spans.
type traceStats struct {
	// layer holds the per-layer times (ms), keyed by metric name.
	layer map[string][]float64
	// self holds each span name's self times (ms): duration minus the
	// part of its interval its children cover.
	self map[string][]float64
	// requests counts request spans; withTree those whose span tree
	// holds a wire, handler and run span.
	requests, withTree int
}

// analyze computes self times and the per-layer decomposition.
func (t *tracer) analyze() traceStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := traceStats{layer: map[string][]float64{}, self: map[string][]float64{}}
	add := func(m map[string][]float64, k string, ns int64) { m[k] = append(m[k], float64(ns)/1e6) }
	for _, s := range spans {
		add(st.self, s.Name, s.dur()-covered(s, children[s.ID]))
		switch s.Name {
		case "request":
			st.requests++
			byName := map[string]int64{}
			for _, c := range children[s.ID] {
				byName[c.Name] += c.dur()
			}
			wire, hasWire := byName["wire"]
			handler, hasHandler := byName["handler"]
			run, hasRun := byName["run"]
			if hasWire && hasHandler && hasRun {
				st.withTree++
				add(st.layer, "server.wire_ms", wire-handler)
				add(st.layer, "server.overhead_ms", handler-run)
			}
			if group, ok := byName["group"]; ok {
				var core int64
				for _, c := range children[s.ID] {
					if c.Name == "group" {
						for _, cc := range children[c.ID] {
							core += cc.dur()
						}
					}
				}
				add(st.layer, "pietql.group_ms", group-byName["geo"]-core)
			}
		case "handler":
			add(st.layer, "server.handler_ms", s.dur())
		case "run":
			add(st.layer, "pietql.run_ms", s.dur())
		case "parse", "geo", "format":
			add(st.layer, "pietql."+s.Name+"_ms", s.dur())
		case "mdx":
			add(st.layer, "mdx.run_ms", s.dur())
		case "core.count_passing", "core.trajectories":
			add(st.layer, s.Name+"_ms", s.dur())
		case "moft.copy":
			add(st.layer, "moft.copy_ms", s.dur())
		}
		// ObjectsSampledInside runs once per polygon: sum the calls
		// one handler or Run made.
		var sampled int64
		n := 0
		for _, c := range children[s.ID] {
			if c.Name == "core.sampled_inside" {
				sampled += c.dur()
				n++
			}
		}
		if n > 0 {
			add(st.layer, "core.sampled_inside_ms", sampled)
		}
	}
	return st
}

// covered returns how much of s's interval its children cover.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
