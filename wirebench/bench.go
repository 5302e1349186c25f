package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/core"
	"mogis/internal/mdx"
	"mogis/internal/moft"
	"mogis/internal/pietql"
	"mogis/internal/server"
	"mogis/internal/telemetry"
)

const (
	// batchPeriod is the open-loop feeder's send interval.
	batchPeriod = 250 * time.Millisecond
	// requestTimeout is the client deadline; a later answer is a failure.
	requestTimeout = 10 * time.Second
	// visibleTimeout bounds the wait, after the feeder stops, for the
	// last batches to show up in a query answer.
	visibleTimeout = 10 * time.Second
)

// bench is one served system plus the client-side state of a run.
type bench struct {
	w      workload
	seed   int64
	tel    *telemetry.Collector
	orc    *oracle
	plan   *ingestPlan
	tr     *tracer // nil unless the run is traced
	bodies map[string][]byte

	sys *pietql.System
	// engine is the served engine without the tracing wrapper.
	engine core.Querier
	srv    *server.Server
	url    string

	// sent and acked count ingest batches over the whole run; ackedSeq
	// holds the plan sequence numbers of the acked ones, in order
	// (written by one feeder at a time).
	sent, acked atomic.Int64
	ackedSeq    []int

	// replayMu runs the traced requests and ingests of a phase with
	// replays one at a time, so no replay shares the CPUs with another
	// request of the benchmark.
	replayMu sync.Mutex

	attempted, failed, wrong atomic.Int64
	errMu                    sync.Mutex
	errs                     []string
}

// phase holds what one measured phase observed.
type phase struct {
	wall    time.Duration
	queries int
	// rounds are round latencies (ms).
	rounds []float64
	shapes map[string][]float64
	// ingest, visible and lag are per batch (ms).
	ingest, visible, lag []float64
}

func newPhase() *phase { return &phase{shapes: map[string][]float64{}} }

func (p *phase) merge(o *phase) {
	p.queries += o.queries
	p.rounds = append(p.rounds, o.rounds...)
	for k, v := range o.shapes {
		p.shapes[k] = append(p.shapes[k], v...)
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func post(hc *http.Client, url, ctype string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, clip(b))
	}
	return b, nil
}

// errWrong marks a well-formed response whose answer the oracle rejects.
var errWrong = errors.New("wrong answer")

// record counts one request and reports whether it succeeded.
func (b *bench) record(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.failed.Add(1)
	if errors.Is(err, errWrong) {
		b.wrong.Add(1)
	}
	b.errMu.Lock()
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err.Error())
	}
	b.errMu.Unlock()
	return false
}

// verify checks an answer to shape sh. The visibility query's count
// depends on the ingested batches: lo is the acked count before the
// request was sent, hi the sent count after its response arrived. It
// returns the number of batches the answer includes.
func (b *bench) verify(sh shape, body []byte, lo, hi int) (int, error) {
	a, err := decodeAnswer(body)
	if err != nil {
		return 0, err
	}
	if sh.name == visibleShape.name {
		j, err := b.orc.checkVisible(a, lo, hi)
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %w", errWrong, sh.name, err)
		}
		return j, nil
	}
	if err := checkAnswer(b.orc.want[sh.name], a); err != nil {
		return 0, fmt.Errorf("%w: %s: %w", errWrong, sh.name, err)
	}
	return 0, nil
}

// query sends sh over the wire and checks the answer. It returns the
// latency, the batches the answer includes and whether it succeeded.
func (b *bench) query(hc *http.Client, sh shape) (float64, int, bool) {
	lo := int(b.acked.Load())
	t0 := time.Now()
	body, err := post(hc, b.url+"/query", "application/json", b.bodies[sh.name])
	ms := msSince(t0)
	j := 0
	if err == nil {
		j, err = b.verify(sh, body, lo, int(b.sent.Load()))
	}
	return ms, j, b.record(err)
}

// tracedQuery runs one request of a traced round. Besides the wire
// request it replays the request through each layer's public entry
// point, one span per call:
//
//	request
//	├─ parse              pietql.Parse
//	├─ wire               POST /query over loopback
//	├─ handler            Server.Handler().ServeHTTP on a recorder
//	│  └─ core.*
//	├─ run                System.Run
//	│  └─ core.*
//	├─ geo                System.Eval of the geo part alone
//	├─ mdx                mdx.Run
//	├─ group              System.Eval of a grouped query
//	│  └─ core.trajectories
//	└─ format             pietql.FormatOutcome
//
// Every answer — wire, handler and Run — is checked. Traced requests
// run one at a time.
func (b *bench) tracedQuery(hc *http.Client, round ref, sh shape) (float64, int, bool) {
	b.replayMu.Lock()
	defer b.replayMu.Unlock()
	ctx := context.Background()
	tr := b.tr
	req := tr.begin(round, "request")
	req.Request = req.ID
	defer tr.finish(req)
	r := req.ref()

	s := tr.begin(r, "parse")
	q, err := pietql.Parse(sh.text)
	tr.finish(s)
	if err != nil {
		return 0, 0, b.record(err)
	}

	wire := tr.begin(r, "wire")
	ms, j, ok := b.query(hc, sh)
	tr.finish(wire)
	if !ok {
		return ms, j, false
	}

	h := tr.begin(r, "handler")
	lo := int(b.acked.Load())
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(b.bodies[sh.name])).WithContext(withRef(ctx, h.ref()))
	hreq.Header.Set("Content-Type", "application/json")
	b.srv.Handler().ServeHTTP(rec, hreq)
	tr.finish(h)
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("handler: status %d: %s", rec.Code, clip(rec.Body.Bytes()))
	} else {
		_, err = b.verify(sh, rec.Body.Bytes(), lo, int(b.sent.Load()))
	}
	if !b.record(err) {
		return ms, j, false
	}

	run := tr.begin(r, "run")
	lo = int(b.acked.Load())
	out, err := b.sys.Run(withRef(ctx, run.ref()), sh.text)
	tr.finish(run)
	if err == nil {
		var body []byte
		body, err = json.Marshal(answerOf(out))
		if err == nil {
			_, err = b.verify(sh, body, lo, int(b.sent.Load()))
		}
	}
	if !b.record(err) {
		return ms, j, false
	}

	s = tr.begin(r, "geo")
	_, err = b.sys.Eval(ctx, &pietql.Query{Geo: q.Geo})
	tr.finish(s)
	if err == nil && q.OLAP != "" {
		s = tr.begin(r, "mdx")
		_, err = mdx.Run(b.sys.Cubes, q.OLAP)
		tr.finish(s)
	}
	if err == nil && q.MO != nil && q.MO.GroupBy != "" {
		s = tr.begin(r, "group")
		_, err = b.sys.Eval(withRef(ctx, s.ref()), q)
		tr.finish(s)
	}
	if err == nil {
		s = tr.begin(r, "format")
		_ = pietql.FormatOutcome(out)
		tr.finish(s)
	}
	return ms, j, b.record(err)
}

// round sends the workload's query list once, in order.
func (b *bench) round(hc *http.Client, ph *phase, traced bool) {
	var rs span
	if traced {
		rs = b.tr.begin(ref{}, "round")
	}
	t0 := time.Now()
	for _, sh := range b.w.round {
		var ms float64
		var ok bool
		if traced {
			ms, _, ok = b.tracedQuery(hc, rs.ref(), sh)
		} else {
			ms, _, ok = b.query(hc, sh)
		}
		if ok {
			ph.queries++
			ph.shapes[sh.name] = append(ph.shapes[sh.name], ms)
		}
	}
	ph.rounds = append(ph.rounds, msSince(t0))
	if traced {
		b.tr.finish(rs)
	}
}

// closedLoop runs the workload's clients for d: each sends its next
// round as soon as the previous one completes.
func (b *bench) closedLoop(d time.Duration, traced bool) *phase {
	ph := newPhase()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range b.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			local := newPhase()
			for time.Now().Before(deadline) {
				b.round(hc, local, traced)
			}
			mu.Lock()
			ph.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// ingest sends one batch and, when it is acked, appends it to the
// run's acked batches. Only one goroutine ingests at a time. With
// replay, the ingest and its replays run alone.
func (b *bench) ingest(hc *http.Client, bt batch, replay bool) bool {
	if replay {
		b.replayMu.Lock()
		defer b.replayMu.Unlock()
	}
	b.sent.Add(1)
	_, err := post(hc, b.url+"/ingest?table="+table, "text/csv", bt.body)
	if !b.record(err) {
		return false
	}
	b.ackedSeq = append(b.ackedSeq, bt.seq)
	b.acked.Add(1)
	if replay {
		b.record(b.replayIngest())
	}
	return true
}

// replayIngest times, after an ack, the table copy /ingest makes
// (moft.New plus AddTuple over every current tuple) and the LIT rebuild
// the ack leaves to the next query (Engine.Trajectories on the new
// table). Nothing else runs meanwhile, so the call pays the whole
// rebuild.
func (b *bench) replayIngest() error {
	cur, err := b.sys.Ctx.Table(table)
	if err != nil {
		return err
	}
	s := b.tr.begin(ref{}, "moft.copy")
	next := moft.New(table)
	for _, tp := range cur.Tuples() {
		next.AddTuple(tp)
	}
	b.tr.finish(s)
	s = b.tr.begin(ref{}, "core.trajectories")
	_, err = b.engine.Trajectories(context.Background(), table)
	b.tr.finish(s)
	return err
}

// openLoop runs the ingest-mix phase for d: the feeder sends one batch
// every batchPeriod whatever the server's progress, while one
// closed-loop client sends the visibility query. Ingest latency and
// visibility run from each batch's scheduled time.
func (b *bench) openLoop(d time.Duration, traced bool) *phase {
	n := max(1, int(d/batchPeriod))
	batches := make([]batch, n)
	for k := range batches {
		batches[k] = b.plan.next()
	}
	base := int(b.acked.Load())
	ph := newPhase()
	start := time.Now()

	due := make([]time.Time, n)
	acked := make([]time.Time, n)
	var feederEnd time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		hc := newHTTPClient()
		defer hc.CloseIdleConnections()
		for k := range batches {
			due[k] = start.Add(time.Duration(k) * batchPeriod)
			time.Sleep(time.Until(due[k]))
			ph.lag = append(ph.lag, msSince(due[k]))
			if !b.ingest(hc, batches[k], traced) {
				break
			}
			acked[k] = time.Now()
		}
		feederEnd = time.Now()
	}()

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	seen := make([]time.Time, 0, n)
	feeding := true
	var tail time.Time
	for {
		if feeding {
			select {
			case <-done:
				feeding, tail = false, time.Now()
			default:
			}
		}
		if !feeding && (int(b.acked.Load())-base == len(seen) || time.Since(tail) > visibleTimeout) {
			break
		}
		var ms float64
		var j int
		var ok bool
		if traced {
			rs := b.tr.begin(ref{}, "round")
			ms, j, ok = b.tracedQuery(hc, rs.ref(), visibleShape)
			b.tr.finish(rs)
		} else {
			ms, j, ok = b.query(hc, visibleShape)
		}
		now := time.Now()
		if feeding {
			ph.rounds = append(ph.rounds, ms)
			if ok {
				ph.queries++
				ph.shapes[visibleShape.name] = append(ph.shapes[visibleShape.name], ms)
			}
		}
		for ok && len(seen) < j-base {
			seen = append(seen, now)
		}
	}
	<-done
	ph.wall = feederEnd.Sub(start)
	for k := range seen {
		ph.visible = append(ph.visible, seen[k].Sub(due[k]).Seconds()*1e3)
	}
	for k := range acked {
		if !acked[k].IsZero() {
			ph.ingest = append(ph.ingest, acked[k].Sub(due[k]).Seconds()*1e3)
		}
	}
	if acks := int(b.acked.Load()) - base; len(seen) < acks {
		b.record(fmt.Errorf("%d of %d acked batches never became visible", acks-len(seen), acks))
	}
	return ph
}

// probe measures ingest on a workload without a feeder: n batches in
// a closed loop, each followed by visibility queries until one
// includes it. Latencies run from the send time. With replay, each
// acked batch is followed by a timed table copy.
func (b *bench) probe(n int, replay bool) *phase {
	ph := newPhase()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for range n {
		bt := b.plan.next()
		t0 := time.Now()
		if !b.ingest(hc, bt, replay) {
			return ph
		}
		ph.ingest = append(ph.ingest, msSince(t0))
		want := int(b.acked.Load())
		for tries := 0; ; tries++ {
			_, j, ok := b.query(hc, visibleShape)
			if ok && j >= want {
				ph.visible = append(ph.visible, msSince(t0))
				break
			}
			if tries == 100 {
				b.record(fmt.Errorf("probe batch %d never became visible", want))
				return ph
			}
		}
	}
	return ph
}

// serve builds the system through the daemon's bootstrap, starts the
// server on a loopback listener and sends one round on cold caches. It
// returns the time spent in those three steps: the set-up cost.
func (b *bench) serve() (time.Duration, error) {
	t0 := time.Now()
	sys, err := server.NewSystem(systemConfig(true, b.tel))
	if err != nil {
		return 0, err
	}
	built := time.Since(t0)
	// Installing the seed's table is input loading, not set-up.
	loadObjects(sys, objects(b.seed))
	t0 = time.Now()
	b.engine = sys.Engine
	if b.tr != nil {
		sys.Engine = &tracedEngine{Querier: sys.Engine, tr: b.tr}
	}
	srv, err := server.New(server.Config{
		System:        sys,
		Telemetry:     b.tel,
		GeofenceLayer: "Ln",
		QueryTimeout:  30 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, err
	}
	b.sys, b.srv, b.url = sys, srv, "http://"+srv.Addr()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for _, sh := range b.w.round {
		if _, _, ok := b.query(hc, sh); !ok {
			return 0, fmt.Errorf("cold round: %s failed", sh.name)
		}
	}
	return built + time.Since(t0), nil
}

// stop shuts the server down and waits for it to drain.
func (b *bench) stop() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	b.srv = nil
	return err
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }
