package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// moCount runs the plain MO query and returns its status and count
// (count is -1 unless the status is 200).
func moCount(t *testing.T, s *Server) (int, int) {
	t.Helper()
	w := do(s, "POST", "/query", moQuery, nil)
	if w.Code != http.StatusOK {
		return w.Code, -1
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.HasMO {
		t.Fatal("no MO result")
	}
	return w.Code, resp.MOCount
}

// wantIngestRejected posts body and asserts a typed 400 naming line.
func wantIngestRejected(t *testing.T, s *Server, body string, line int) {
	t.Helper()
	w := do(s, "POST", "/ingest?table=FMbus", body, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("ingest %q: status %d, want 400: %s", body, w.Code, w.Body.String())
	}
	e := decodeError(t, w)
	if e.Code != "bad_request" {
		t.Errorf("code %q, want bad_request", e.Code)
	}
	if want := fmt.Sprintf("line %d:", line); !strings.Contains(e.Error, want) {
		t.Errorf("error %q does not name %q", e.Error, want)
	}
}

// TestIngestRejectsNonFinite: strconv.ParseFloat accepts NaN and ±Inf,
// and one such row used to turn every later interpolated query into a
// recovered-panic 500. The batch is refused whole and the table keeps
// answering as before.
func TestIngestRejectsNonFinite(t *testing.T) {
	s, _ := newTestServer(t, nil)
	_, before := moCount(t, s)
	for _, body := range []string{
		"9001,10,+Inf,0.5\n",
		"9001,10,0.5,-Inf\n",
		"9001,10,NaN,0.5\n",
		"9001,10,0.5,0.5\n9001,20,inf,0.5\n",
	} {
		line := strings.Count(strings.TrimSpace(body), "\n") + 1
		wantIngestRejected(t, s, body, line)
		if code, n := moCount(t, s); code != http.StatusOK || n != before {
			t.Fatalf("after %q: query %d count %d, want 200 count %d", body, code, n, before)
		}
	}
}

// TestIngestRejectsDuplicates: a repeated (oid, t) breaks the MOFT
// functional dependency (Oid, t) → position, and used to make every
// later interpolated query answer 422. Duplicates within one batch,
// across batches and against the seeded table are all refused.
func TestIngestRejectsDuplicates(t *testing.T) {
	s, _ := newTestServer(t, nil)
	_, before := moCount(t, s)

	wantIngestRejected(t, s, "9001,10,0.5,0.5\n9001,20,3.5,0.5\n9001,10,3.5,3.5\n", 3)
	if code, n := moCount(t, s); code != http.StatusOK || n != before {
		t.Fatalf("after in-batch duplicate: query %d count %d, want 200 count %d", code, n, before)
	}

	// A clean batch is accepted; repeating one of its rows is not.
	if w := do(s, "POST", "/ingest?table=FMbus", "9002,10,0.5,0.5\n9002,20,3.5,0.5\n", nil); w.Code != http.StatusOK {
		t.Fatalf("clean batch: %d %s", w.Code, w.Body.String())
	}
	code, after := moCount(t, s)
	if code != http.StatusOK {
		t.Fatalf("after clean batch: query %d", code)
	}
	wantIngestRejected(t, s, "9002,30,3.5,3.5\n9002,20,0.5,0.5\n", 2)
	if code, n := moCount(t, s); code != http.StatusOK || n != after {
		t.Fatalf("after cross-batch duplicate: query %d count %d, want 200 count %d", code, n, after)
	}

	tbl, err := s.sys.Ctx.Table("FMbus")
	if err != nil {
		t.Fatal(err)
	}
	seeded := tbl.Tuples()[0]
	wantIngestRejected(t, s, fmt.Sprintf("%d,%d,0.5,0.5\n", seeded.Oid, seeded.T), 1)
}

// FuzzIngest posts a fuzzed CSV body to /ingest on the paper scenario,
// then runs the plain MO query. Invariant: a batch that got a 2xx
// never makes the later query fail with a 5xx or a 422 — whatever
// /ingest accepts, the engine can evaluate.
func FuzzIngest(f *testing.F) {
	for _, seed := range []string{
		"9001,10,0.5,0.5\n9001,20,3.5,0.5\n9001,30,3.5,3.5\n",
		"9001,10,0.5,0.5\n9001,20,+Inf,0.5\n",
		"9001,10,NaN,NaN\n",
		"9001,10,0.5,0.5\n9001,10,3.5,3.5\n",
		"1,0,0.5,0.5\n",
		"# comment\n\n7,5,1e300,-1e300\n7,6,-1e300,1e300\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, _ := newTestServer(t, nil)
		w := do(s, "POST", "/ingest?table=FMbus", body, nil)
		if w.Code/100 != 2 {
			return
		}
		q := do(s, "POST", "/query", moQuery, nil)
		if q.Code/100 == 5 || q.Code == http.StatusUnprocessableEntity {
			t.Fatalf("accepted batch %q, then the MO query answered %d: %s", body, q.Code, q.Body.String())
		}
	})
}
