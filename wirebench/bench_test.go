package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mogis/internal/layer"
	"mogis/internal/olap"
	"mogis/internal/telemetry"
)

// spec is the part of BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortPass runs every workload briefly, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its
// unit and that no request failed.
func TestShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			rep, err := run(config{workload: w.Name, seed: 7, seconds: 1.5, trace: trace, setups: 2, probe: 3})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 || rep.Detail["error_rate"] != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d error_rate=%g errors=%v",
					w.Name, trace, last.Correct, last.Attempted, last.Failed, rep.Detail["error_rate"], rep.Meta.Errors)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !hasLine(lines, m.Name, m.Unit) {
					t.Errorf("%s trace=%t: no line names %s with unit %s", w.Name, trace, m.Name, m.Unit)
				}
			}
			if trace && (rep.Meta.SpanTrees == 0 || rep.Meta.SpanTrees != rep.Meta.SpanRequests) {
				t.Errorf("%s: %d of %d traced requests have a wire/handler/run span tree", w.Name, rep.Meta.SpanTrees, rep.Meta.SpanRequests)
			}
		}
	}
}

func hasLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestOracleRejectsWrongAnswers shows the response check is not
// vacuous: a right answer checked against a wrong expectation, and
// wrong answers checked against the right one, all fail.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	scan, err := newScanSystem(7, tel)
	if err != nil {
		t.Fatal(err)
	}
	orc, _, err := newOracle(scan, 7, workloads["groupby"])
	if err != nil {
		t.Fatal(err)
	}
	right, err := decodeAnswer(orc.want["grouped"])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(orc.want["grouped"], right); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	if err := checkAnswer(orc.want["plain"], right); err == nil {
		t.Error("grouped answer accepted against the plain query's expectation")
	}

	wrongCount := right
	wrongCount.MOCount++
	wrongGeo := right
	wrongGeo.GeoIDs = map[string][]layer.Gid{"Ln": {1}}
	wrongText := right
	wrongText.Text += " "
	wrongGroups := right
	wrongGroups.MOGroup = nil
	if right.MOGroup == nil || len(right.MOGroup.Rows) == 0 {
		t.Fatal("expected grouped answer has no hour bucket")
	}
	bucket := *right.MOGroup
	bucket.Rows = append([]olap.AggResultRow(nil), bucket.Rows...)
	bucket.Rows[0].Value++
	wrongBucket := right
	wrongBucket.MOGroup = &bucket
	for name, a := range map[string]answer{"count": wrongCount, "geo": wrongGeo, "text": wrongText, "groups": wrongGroups, "bucket": wrongBucket} {
		if err := checkAnswer(orc.want["grouped"], a); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}

	// Under ingest the count must be the base plus newPerBatch per
	// batch, for a batch count the request could have seen.
	vis, err := decodeAnswer(orc.visibleWant(2))
	if err != nil {
		t.Fatal(err)
	}
	if j, err := orc.checkVisible(vis, 1, 3); err != nil || j != 2 {
		t.Errorf("two batches within [1,3]: j=%d err=%v", j, err)
	}
	if _, err := orc.checkVisible(vis, 3, 4); err == nil {
		t.Error("answer missing a batch acked before the request was accepted")
	}
	if _, err := orc.checkVisible(vis, 0, 1); err == nil {
		t.Error("answer including a batch not yet sent was accepted")
	}
	vis.MOCount++
	if _, err := orc.checkVisible(vis, 0, 5); err == nil {
		t.Error("count off the batch grid was accepted")
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}
