package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// The query-budget guard is the server half of the adversarial-
// robustness story (internal/robust/attack): an attacker needs a long
// adaptive query stream, so the server meters reads (/query and
// /snapshot) per (tenant, sketch) and per tenant — and nothing else.
// Ingest, merges, and other sketches must never be collateral.

func TestQueryBudgetExhaustsTo429(t *testing.T) {
	s := New()
	s.SetQueryBudget(QueryBudget{Queries: 3, Interval: time.Hour})
	ts := serveLoop(t, s.Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/guarded", `{"type":"hll","p":10}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/other", `{"type":"hll","p":10}`).ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/guarded/add", "a\nb\nc").ok(t)

	for i := 0; i < 3; i++ {
		do(t, "GET", ts.URL+"/v1/sketch/guarded/query", "").ok(t)
	}
	resp, err := http.Get(ts.URL + "/v1/sketch/guarded/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("query #4: HTTP %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	// The budget is per sketch: a sibling sketch's reads are untouched,
	// and the throttled sketch still ingests.
	do(t, "GET", ts.URL+"/v1/sketch/other/query", "").ok(t)
	do(t, "POST", ts.URL+"/v1/sketch/guarded/add", "d\ne").ok(t)

	// Snapshots draw from the same budget — an unmetered state export
	// would let the attacker evaluate estimates offline.
	if code := do(t, "GET", ts.URL+"/v1/sketch/guarded/snapshot", "").code; code != 429 {
		t.Fatalf("snapshot over budget: HTTP %d, want 429", code)
	}
	do(t, "GET", ts.URL+"/v1/sketch/other/snapshot", "").ok(t)
}

func TestQueryBudgetWindowRefills(t *testing.T) {
	s := New()
	s.SetQueryBudget(QueryBudget{Queries: 2, Interval: 50 * time.Millisecond})
	ts := serveLoop(t, s.Handler(), nil)
	do(t, "POST", ts.URL+"/v1/sketch/s", `{"type":"hll","p":10}`).ok(t)
	do(t, "GET", ts.URL+"/v1/sketch/s/query", "").ok(t)
	do(t, "GET", ts.URL+"/v1/sketch/s/query", "").ok(t)
	if code := do(t, "GET", ts.URL+"/v1/sketch/s/query", "").code; code != 429 {
		t.Fatalf("over budget: HTTP %d, want 429", code)
	}
	time.Sleep(80 * time.Millisecond)
	do(t, "GET", ts.URL+"/v1/sketch/s/query", "").ok(t)
}

func TestTenantMaxQPS(t *testing.T) {
	s := New()
	s.SetTenantQuota(TenantQuota{MaxQPS: 2})
	ts := serveLoop(t, s.Handler(), nil)
	do(t, "POST", ts.URL+"/v1/t/noisy/sketch/a", `{"type":"hll","p":10}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/noisy/sketch/b", `{"type":"hll","p":10}`).ok(t)
	do(t, "POST", ts.URL+"/v1/t/quiet/sketch/c", `{"type":"hll","p":10}`).ok(t)

	// The cap spans the tenant's sketches: a+b together burn the 2/sec.
	do(t, "GET", ts.URL+"/v1/t/noisy/sketch/a/query", "").ok(t)
	do(t, "GET", ts.URL+"/v1/t/noisy/sketch/b/query", "").ok(t)
	code := do(t, "GET", ts.URL+"/v1/t/noisy/sketch/a/query", "").code
	if code != 429 {
		t.Fatalf("over tenant QPS: HTTP %d, want 429", code)
	}

	// Another tenant is untouched; the throttled tenant still ingests.
	do(t, "GET", ts.URL+"/v1/t/quiet/sketch/c/query", "").ok(t)
	do(t, "POST", ts.URL+"/v1/t/noisy/sketch/a/add", "still-flowing").ok(t)

	// The refusal is visible on /v1/status.
	var st StatusResponse
	if err := json.Unmarshal(do(t, "GET", ts.URL+"/v1/status", "").ok(t), &st); err != nil {
		t.Fatal(err)
	}
	var throttled uint64
	for _, row := range st.Tenants {
		if row.Tenant == "noisy" {
			throttled = row.Throttled
		}
	}
	if throttled == 0 {
		t.Error("throttled gauge not incremented for tenant noisy")
	}
}

func TestBudgetGuardZeroAlloc(t *testing.T) {
	s := New()
	s.SetQueryBudget(QueryBudget{Queries: 1 << 40, Interval: time.Hour})
	s.SetTenantQuota(TenantQuota{MaxQPS: 1 << 30})
	ts := newTenantState("alloc")
	ne := &namedEntry{}
	now := time.Now().UnixNano()
	if _, ok := s.allowSketchQuery(ne, now); !ok {
		t.Fatal("first sketch query refused")
	}
	if _, ok := s.allowTenantQuery(ts, now); !ok {
		t.Fatal("first tenant query refused")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.allowSketchQuery(ne, now)
		s.allowTenantQuery(ts, now)
	})
	if allocs != 0 {
		t.Errorf("budget-guard allow path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestBucketTake drives the one token bucket behind both read guards
// with explicit clock readings: limit takes succeed, the next refuses
// with the window's remainder rounded up to whole seconds (never 0), a
// take at the window boundary refills, and limit <= 0 never refuses.
func TestBucketTake(t *testing.T) {
	const t0 = int64(1_700_000_000) * int64(time.Second)
	type take struct {
		at    time.Duration // since t0
		ok    bool
		retry int64 // Retry-After in seconds when refused
	}
	for _, tc := range []struct {
		name     string
		limit    int64
		interval time.Duration
		takes    []take
	}{
		{"limit takes, then the remainder rounded up", 3, time.Minute, []take{
			{0, true, 0}, {time.Second, true, 0}, {2 * time.Second, true, 0},
			{2500 * time.Millisecond, false, 58}, {59 * time.Second, false, 1},
		}},
		{"a whole-second remainder is not rounded", 1, 10 * time.Second, []take{
			{0, true, 0}, {4 * time.Second, false, 6},
		}},
		{"a nanosecond left is still 1 s", 1, time.Second, []take{
			{0, true, 0}, {time.Second - 1, false, 1},
		}},
		{"the window boundary refills", 2, time.Second, []take{
			{0, true, 0}, {0, true, 0}, {999 * time.Millisecond, false, 1},
			{time.Second, true, 0}, {time.Second, true, 0}, {time.Second, false, 1},
			{2500 * time.Millisecond, true, 0},
		}},
		{"limit 0 never refuses", 0, time.Second, []take{
			{0, true, 0}, {0, true, 0}, {0, true, 0}, {time.Hour, true, 0},
		}},
		{"a negative limit never refuses", -1, time.Second, []take{
			{0, true, 0}, {0, true, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b bucket
			for i, tk := range tc.takes {
				retry, ok := b.take(t0+int64(tk.at), tc.limit, tc.interval)
				if ok != tk.ok || retry != tk.retry {
					t.Errorf("take %d at +%v: (%d, %v), want (%d, %v)", i, tk.at, retry, ok, tk.retry, tk.ok)
				}
			}
		})
	}
}
