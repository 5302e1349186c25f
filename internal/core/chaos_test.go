package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/layer"
	"mogis/internal/qerr"
	"mogis/internal/timedim"
)

// chaosQuery is one query shape a chaos cell runs.
type chaosQuery struct {
	name string
	run  func(ctx context.Context) (any, error)
}

// coreSites maps each engine-side faultpoint to the queries guaranteed
// to traverse it (overlay/pair is exercised in internal/overlay): the
// ungrouped query and the bucketed GROUP BY query of the same
// semantics. The chaos matrix below runs every site in every mode and
// asserts the robustness contract: typed errors out, caches coherent,
// retries bit-identical, no stranded goroutines.
func coreSites(w *robustWorkload) map[string][]chaosQuery {
	buckets := func(sampled bool) chaosQuery {
		return chaosQuery{"buckets", func(ctx context.Context) (any, error) {
			b, n, err := w.eng.CountPassingThroughBuckets(ctx, "FM", "Ln", []layer.Gid{1}, w.win, timedim.CatHour, sampled)
			return fmt.Sprint(b, n), err
		}}
	}
	interpolated := []chaosQuery{
		{"passing", func(ctx context.Context) (any, error) {
			return w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
		}},
		buckets(false),
	}
	return map[string][]chaosQuery{
		faultpoint.CoreLITBuild:       interpolated,
		faultpoint.CoreFanoutChunk:    interpolated,
		faultpoint.CorePrefilter:      interpolated,
		faultpoint.CoreIntervalInsert: interpolated,
		faultpoint.CoreGridBuild: {
			{"sampled", func(ctx context.Context) (any, error) {
				return w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
			}},
			buckets(true),
		},
	}
}

// TestChaosMatrix arms every core faultpoint in every injection mode
// and checks, per cell and for each query of the site: the query fails with the right typed error
// (or, for a pure delay, is cancelled or completes correctly); after
// disarming, the identical query succeeds and matches the baseline
// bit-for-bit; and no goroutines are stranded by the injected failure.
func TestChaosMatrix(t *testing.T) {
	w := newRobustWorkload(t)
	sites := coreSites(w)

	// Baselines from the same engine before any fault: also proves each
	// query shape works, so a later nil error can only mean the site
	// was not traversed.
	baseline := map[string]any{}
	for site, qs := range sites {
		for _, q := range qs {
			out, err := q.run(context.Background())
			if err != nil {
				t.Fatalf("baseline for %s/%s: %v", site, q.name, err)
			}
			baseline[site+"/"+q.name] = out
		}
	}

	for site, qs := range sites {
		for _, mode := range []faultpoint.Mode{faultpoint.ModeError, faultpoint.ModePanic, faultpoint.ModeDelay} {
			t.Run(fmt.Sprintf("%s/%s", site, mode), func(t *testing.T) {
				for _, q := range qs {
					chaosCell(t, w, site, mode, q, baseline[site+"/"+q.name])
				}
			})
		}
	}
}

// chaosCell runs one query with one site armed in one mode, then the
// disarmed retry and the goroutine check.
func chaosCell(t *testing.T, w *robustWorkload, site string, mode faultpoint.Mode, q chaosQuery, want any) {
	t.Helper()
	// Drop caches so build-path sites (lit-build, grid-build) are
	// traversed again, not skipped via the latched unit.
	w.eng.ResetCache()
	before := runtime.NumGoroutine()

	switch mode {
	case faultpoint.ModeError:
		faultpoint.Arm(site, faultpoint.ModeError, 0)
		_, err := q.run(context.Background())
		faultpoint.Reset()
		var f *faultpoint.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: got %v, want injected fault", q.name, err)
		}
		if f.Site != site {
			t.Fatalf("%s: fault site %q, want %q", q.name, f.Site, site)
		}
	case faultpoint.ModePanic:
		faultpoint.Arm(site, faultpoint.ModePanic, 0)
		_, err := q.run(context.Background())
		faultpoint.Reset()
		if !qerr.IsPanic(err) {
			t.Fatalf("%s: got %v, want recovered panic", q.name, err)
		}
	case faultpoint.ModeDelay:
		// Cancel mid-delay: the next checkpoint after the sleep
		// observes the dead context. Sites with no checkpoint between
		// injection and return may still complete — then the result
		// must be correct.
		faultpoint.Arm(site, faultpoint.ModeDelay, 30*time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		out, err := q.run(ctx)
		timer.Stop()
		cancel()
		faultpoint.Reset()
		if err != nil {
			if !qerr.IsCancel(err) {
				t.Fatalf("%s: got %v, want cancellation", q.name, err)
			}
		} else if !reflect.DeepEqual(out, want) {
			t.Fatalf("%s: delayed query completed with wrong result: %v", q.name, out)
		}
	}

	// Disarm-then-retry: the same query must now succeed and match the
	// baseline exactly (cache as-if-never-started).
	got, err := q.run(context.Background())
	if err != nil {
		t.Fatalf("%s: retry after %s fault: %v", q.name, mode, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: retry diverged: got %v, want %v", q.name, got, want)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("%s: goroutines stranded: before=%d after=%d", q.name, before, n)
	}
}

// TestChaosCatalogCovered pins that the matrix exercises every known
// site except overlay/pair (owned by the overlay package's own chaos
// test) and the server/* sites (owned by internal/server's chaos
// matrix), so adding a faultpoint without chaos coverage fails here.
func TestChaosCatalogCovered(t *testing.T) {
	w := newRobustWorkload(t)
	sites := coreSites(w)
	for _, name := range faultpoint.Catalog() {
		if name == faultpoint.OverlayPair || strings.HasPrefix(name, "server/") {
			continue
		}
		if _, ok := sites[name]; !ok {
			t.Errorf("faultpoint %s has no chaos coverage in coreSites", name)
		}
	}
}
