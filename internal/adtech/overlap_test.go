package adtech

// Error-vs-exact validation of the inclusion-exclusion overlap
// estimator: two synthetic audiences with a known intersection, pushed
// through serialized envelopes exactly as sketchd serves them, must
// estimate the overlap within the error the component estimators
// imply — and the guard rails (mixed families, non-cardinality
// envelopes) must reject loudly.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/registry"
)

// buildAudiences fills two sketches over overlapping ID ranges:
// A = [0, nA), B = [nA-shared, nA-shared+nB) — |A ∩ B| = shared.
func buildAudiences(add func(which int, id string), nA, nB, shared int) {
	for i := 0; i < nA; i++ {
		add(0, fmt.Sprintf("user-%07d", i))
	}
	for i := nA - shared; i < nA-shared+nB; i++ {
		add(1, fmt.Sprintf("user-%07d", i))
	}
}

func mustEnv(t *testing.T, inst any) []byte {
	t.Helper()
	env, err := registry.Marshal(inst)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return env
}

func TestOverlapErrorVsExactKMV(t *testing.T) {
	const nA, nB, shared = 50_000, 30_000, 10_000
	const k = 4096
	a, b := cardinality.NewKMV(k, 7), cardinality.NewKMV(k, 7)
	buildAudiences(func(which int, id string) {
		if which == 0 {
			a.Add([]byte(id))
		} else {
			b.Add([]byte(id))
		}
	}, nA, nB, shared)

	est, err := OverlapFromEnvelopes(mustEnv(t, a), mustEnv(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if est.Family != "kmv" {
		t.Errorf("family = %q, want kmv", est.Family)
	}
	// Inclusion-exclusion compounds three estimates, each with std err
	// ~1/sqrt(k-2); allow 5 combined standard deviations relative to
	// the union size (the largest of the three operands).
	union := float64(nA + nB - shared)
	tol := 5 * math.Sqrt(3) / math.Sqrt(k-2) * union
	if math.Abs(est.Overlap-shared) > tol {
		t.Errorf("overlap = %.0f, want %d ± %.0f (A=%.0f B=%.0f U=%.0f)",
			est.Overlap, shared, tol, est.ReachA, est.ReachB, est.Union)
	}
	if est.ReachA <= 0 || est.ReachB <= 0 || est.Union < math.Max(est.ReachA, est.ReachB) {
		t.Errorf("inconsistent components: %+v", est)
	}
}

func TestOverlapErrorVsExactHLL(t *testing.T) {
	const nA, nB, shared = 40_000, 40_000, 20_000
	a, b := cardinality.NewHLL(14, 0), cardinality.NewHLL(14, 0)
	buildAudiences(func(which int, id string) {
		if which == 0 {
			a.AddString(id)
		} else {
			b.AddString(id)
		}
	}, nA, nB, shared)

	est, err := OverlapFromEnvelopes(mustEnv(t, a), mustEnv(t, b))
	if err != nil {
		t.Fatal(err)
	}
	union := float64(nA + nB - shared)
	tol := 5 * math.Sqrt(3) * a.StandardError() * union
	if math.Abs(est.Overlap-shared) > tol {
		t.Errorf("overlap = %.0f, want %d ± %.0f", est.Overlap, shared, tol)
	}
}

func TestOverlapClampsToBounds(t *testing.T) {
	// Disjoint sets: the true overlap is 0, and estimator noise must
	// never drive the reported overlap negative.
	a, b := cardinality.NewKMV(1024, 1), cardinality.NewKMV(1024, 1)
	for i := 0; i < 20_000; i++ {
		a.Add([]byte(fmt.Sprintf("left-%d", i)))
		b.Add([]byte(fmt.Sprintf("right-%d", i)))
	}
	est, err := OverlapFromEnvelopes(mustEnv(t, a), mustEnv(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if est.Overlap < 0 {
		t.Errorf("overlap = %v, want >= 0", est.Overlap)
	}
	if lim := math.Min(est.ReachA, est.ReachB); est.Overlap > lim {
		t.Errorf("overlap %v exceeds min reach %v", est.Overlap, lim)
	}
}

func TestOverlapRejectsMixedFamilies(t *testing.T) {
	h := cardinality.NewHLL(12, 0)
	k := cardinality.NewKMV(256, 0)
	h.AddString("x")
	k.Add([]byte("x"))
	_, err := OverlapFromEnvelopes(mustEnv(t, h), mustEnv(t, k))
	if !errors.Is(err, core.ErrIncompatible) {
		t.Errorf("mixed hll/kmv overlap error = %v, want ErrIncompatible", err)
	}
}

func TestOverlapRejectsNonCardinality(t *testing.T) {
	// A frequency sketch decodes fine but has no scalar estimate —
	// overlap must refuse rather than fabricate a number.
	cm := frequency.NewCountMin(128, 4, 0)
	cm.Update([]byte("x"))
	_, err := OverlapFromEnvelopes(mustEnv(t, cm), mustEnv(t, cm))
	if err == nil {
		t.Fatal("overlap across countmin envelopes succeeded, want error")
	}
	if !errors.Is(err, ErrNotCardinality) && !errors.Is(err, core.ErrIncompatible) {
		t.Errorf("countmin overlap error = %v, want ErrNotCardinality", err)
	}
}
