package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

// Test queries against the paper scenario. The MO query traverses the
// engine's LIT-build path, so arming core faultpoints drives the
// typed-error status mapping end to end.
const (
	geoQuery = `SELECT layer.Ln; FROM PietSchema;`
	moQuery  = `SELECT layer.Ln; FROM PietSchema; | | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln`
)

// newTestServer builds a Server over the paper scenario (no overlay —
// naive geometry keeps setup fast) with an isolated telemetry
// collector and metrics registry, mutated by mod before assembly.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *telemetry.Collector) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{})
	sys, err := NewSystem(SystemConfig{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		System:        sys,
		Telemetry:     tel,
		Registry:      obs.NewRegistry(),
		GeofenceLayer: "Ln",
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, tel
}

// do runs one request through the full mux and returns the recorder.
func do(s *Server, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", w.Body.String(), err)
	}
	return e
}

func TestQueryOK(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query", geoQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.GeoIDs["Ln"]) == 0 {
		t.Errorf("no geo ids in %+v", resp)
	}
	if resp.ID == 0 {
		t.Error("query id missing")
	}
}

func TestQueryJSONBodyAndBudgets(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := `{"query": "SELECT layer.Ln; FROM PietSchema;", "max_rows": 100000, "timeout_ms": 5000}`
	w := do(s, "POST", "/query", body, map[string]string{"Content-Type": "application/json"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// TestQueryStatusMapping pins the typed-error → status-code contract
// from DESIGN.md §14.
func TestQueryStatusMapping(t *testing.T) {
	s, _ := newTestServer(t, nil)

	cases := []struct {
		name   string
		target string
		body   string
		arm    func()
		status int
		code   string
	}{
		{
			name: "parse error", target: "/query",
			body:   `MOVING COUNT(*) FROM FMbus`,
			status: http.StatusBadRequest, code: "parse_error",
		},
		{
			name: "eval error", target: "/query",
			body:   `SELECT layer.Ln; FROM WrongSchema;`,
			status: http.StatusUnprocessableEntity, code: "eval_error",
		},
		{
			name: "empty query", target: "/query",
			body:   "",
			status: http.StatusBadRequest, code: "bad_request",
		},
		{
			name: "bad format", target: "/query?format=xml",
			body:   geoQuery,
			status: http.StatusBadRequest, code: "bad_request",
		},
		{
			name: "budget rows", target: "/query?max_rows=1",
			body:   moQuery,
			status: http.StatusUnprocessableEntity, code: "budget_rows",
		},
		{
			name: "budget results", target: "/query?max_results=1",
			body:   moQuery,
			status: http.StatusRequestEntityTooLarge, code: "budget_results",
		},
		{
			name: "deadline", target: "/query?timeout_ms=5",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 50*time.Millisecond) },
			status: http.StatusRequestTimeout, code: "deadline",
		},
		{
			name: "engine panic", target: "/query",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModePanic, 0) },
			status: http.StatusInternalServerError, code: "panic",
		},
		{
			name: "injected fault", target: "/query",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeError, 0) },
			status: http.StatusInternalServerError, code: "injected_fault",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Cached trajectories would skip the armed build site.
			s.sys.Engine.ResetCache()
			if tc.arm != nil {
				tc.arm()
				defer faultpoint.Reset()
			}
			w := do(s, "POST", tc.target, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, e.Error)
			}
		})
	}

	// After every failure mode: disarmed retry answers correctly.
	faultpoint.Reset()
	w := do(s, "POST", "/query", moQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("retry after faults: status %d: %s", w.Code, w.Body.String())
	}
}

// TestBudgetStatusAllMOShapes: one budget spans every engine call of
// a request, so each of the four MO shapes — plain, SAMPLED ONLY,
// GROUP BY hour, and both — maps an exceeded row or result budget to
// its typed status, from cold caches.
func TestBudgetStatusAllMOShapes(t *testing.T) {
	s, _ := newTestServer(t, nil)
	shapes := map[string]string{
		"plain":           moQuery,
		"sampled":         moQuery + ` SAMPLED ONLY`,
		"grouped":         moQuery + ` GROUP BY hour`,
		"sampled_grouped": moQuery + ` SAMPLED ONLY GROUP BY hour`,
	}
	budgets := []struct {
		target string
		status int
		code   string
	}{
		{"/query?max_rows=1", http.StatusUnprocessableEntity, "budget_rows"},
		{"/query?max_results=1", http.StatusRequestEntityTooLarge, "budget_results"},
	}
	for name, q := range shapes {
		for _, b := range budgets {
			t.Run(name+"/"+b.code, func(t *testing.T) {
				s.sys.Engine.ResetCache()
				w := do(s, "POST", b.target, q, nil)
				if w.Code != b.status {
					t.Fatalf("status %d, want %d: %s", w.Code, b.status, w.Body.String())
				}
				if e := decodeError(t, w); e.Code != b.code {
					t.Errorf("code %q, want %q (%s)", e.Code, b.code, e.Error)
				}
			})
		}
		// Unbudgeted, the same shape answers.
		if w := do(s, "POST", "/query", q, nil); w.Code != http.StatusOK {
			t.Fatalf("%s unbudgeted: status %d: %s", name, w.Code, w.Body.String())
		}
	}
}

func TestQueryClientCancel499(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("POST", "/query", strings.NewReader(moQuery)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != statusCodeClientClosed {
		t.Fatalf("status %d, want 499: %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != "client_closed_request" {
		t.Errorf("code %q", e.Code)
	}
}

func TestQueryCSV(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query?format=csv", geoQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rows, err := csv.NewReader(w.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 || rows[0][0] != "section" {
		t.Fatalf("csv rows: %v", rows)
	}
	geo := 0
	for _, row := range rows[1:] {
		if row[0] == "geo" && row[1] == "Ln" {
			geo++
		}
	}
	if geo == 0 {
		t.Errorf("no geo rows in %v", rows)
	}
}

func TestQueryTextFormat(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query?format=text", geoQuery, nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Ln:") {
		t.Fatalf("status %d body %q", w.Code, w.Body.String())
	}
}

// TestIngestInvalidatesCaches proves live ingest is visible to
// queries: the MO count changes after new trajectory rows arrive,
// which requires the copy-on-write table swap AND the trajectory-cache
// invalidation to both work.
func TestIngestInvalidatesCaches(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		s, _ := newTestServer(t, nil)

		count := func() int {
			w := do(s, "POST", "/query", moQuery, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("query: %d %s", w.Code, w.Body.String())
			}
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.HasMO {
				t.Fatal("no MO result")
			}
			return resp.MOCount
		}

		before := count()
		// A brand-new object crossing neighborhood polygons.
		batch := "9001,10,0.5,0.5\n9001,20,3.5,0.5\n9001,30,3.5,3.5\n"
		w := do(s, "POST", "/ingest?table=FMbus", batch, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
		}
		var ir ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Rows != 3 {
			t.Errorf("rows = %d, want 3", ir.Rows)
		}
		after := count()
		if after <= before {
			t.Errorf("MO count %d -> %d; ingest invisible to queries (stale caches?)", before, after)
		}
	})
}

func TestIngestErrors(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, tc := range []struct {
		name, target, body string
		status             int
		code               string
	}{
		{"unknown table", "/ingest?table=Nope", "1,2,3,4\n", http.StatusNotFound, "unknown_table"},
		{"missing table", "/ingest", "1,2,3,4\n", http.StatusBadRequest, "bad_request"},
		{"bad line", "/ingest?table=FMbus", "1,2,three,4\n", http.StatusBadRequest, "bad_request"},
		{"empty batch", "/ingest?table=FMbus", "# nothing\n", http.StatusBadRequest, "bad_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, "POST", tc.target, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("code %q, want %q", e.Code, tc.code)
			}
		})
	}
}

// TestTelemetryPerRequest pins the one-QueryRecord-per-request
// contract, including shed requests.
func TestTelemetryPerRequest(t *testing.T) {
	s, tel := newTestServer(t, nil)
	do(s, "POST", "/query", geoQuery, nil)
	do(s, "POST", "/query", "MOVING nonsense", nil)
	do(s, "POST", "/ingest?table=FMbus", "77,5,0.1,0.1\n", nil)

	// The pipeline emits its own pietql_query records to the same
	// collector; only the per-request http_* records are under test.
	ops := map[string]int{}
	outcomes := map[telemetry.Outcome]int{}
	for _, rec := range tel.Recent(0) {
		if !strings.HasPrefix(rec.Op, "http_") {
			continue
		}
		ops[rec.Op]++
		outcomes[rec.Outcome]++
	}
	if ops[opHTTPQuery] != 2 || ops[opHTTPIngest] != 1 {
		t.Errorf("ops = %v, want 2 http_query + 1 http_ingest", ops)
	}
	if outcomes[telemetry.OutcomeOK] != 2 || outcomes["parse_error"] != 1 {
		t.Errorf("outcomes = %v", outcomes)
	}
}

// TestPanicIsolation: a panicking handler yields a typed 500 carrying
// the query id and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	s.sys.Engine.ResetCache()
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModePanic, 0)
	w := do(s, "POST", "/query", moQuery, nil)
	faultpoint.Reset()
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", w.Code)
	}
	e := decodeError(t, w)
	if e.ID == 0 {
		t.Error("500 body does not carry the query id")
	}
	// The daemon is still alive and correct.
	if w := do(s, "POST", "/query", moQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("after panic: %d %s", w.Code, w.Body.String())
	}
}

// TestTelemetrySurfaceSameMux: /metrics and /debug/* ride the daemon
// mux.
func TestTelemetrySurfaceSameMux(t *testing.T) {
	s, _ := newTestServer(t, nil)
	do(s, "POST", "/query", geoQuery, nil)
	for _, target := range []string{"/metrics", "/debug/stats", "/debug/queries", "/debug/vars", "/healthz"} {
		w := do(s, "GET", target, "", nil)
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d", target, w.Code)
		}
	}
	w := do(s, "GET", "/debug/stats", "", nil)
	if !strings.Contains(w.Body.String(), "goroutines") {
		t.Errorf("/debug/stats missing runtime view: %s", w.Body.String())
	}
}

// TestDrainingRejects: after Shutdown begins, new work is shed with
// 503/draining.
func TestDrainingRejects(t *testing.T) {
	s, tel := newTestServer(t, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := do(s, "POST", "/query", geoQuery, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if e := decodeError(t, w); e.Code != "draining" {
		t.Errorf("code %q", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	found := false
	for _, rec := range tel.Recent(0) {
		if rec.Outcome == OutcomeShed {
			found = true
		}
	}
	if !found {
		t.Error("shed request not recorded in telemetry")
	}
}
