package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/robust/attack"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E32", "adversarial robustness: quadratic-query attack vs the defended estimator family and the sketchd query budget", runE32)
}

// runE32 mounts the Cohen–Nelson–Sarlós universal adaptive attack
// (internal/robust/attack) against the estimator family end to end:
//
//  1. undefended HLL and KMV are driven to >=2x relative error within
//     the quadratic interaction budget 64*k^2;
//  2. every defended wrapper — sketch-switching (HLL and KMV), noisy
//     release, Bernoulli subsampling, and the full robustdistinct
//     stack — keeps relative error bounded under the same attack;
//  3. an attack set hunted offline transfers to a live sketchd sketch
//     sharing the default seed (the threat the server guard exists
//     for), and the -query-budget guard cuts the online hunt off with
//     429 + Retry-After while ingest stays ungated;
//  4. the robustdistinct family serves honest traffic accurately over
//     HTTP through the registry bindings.
func runE32() *Result {
	fail := func(format string, args ...any) *Result {
		return &Result{ID: "E32", Title: "adversarial robustness",
			Bars: []Bar{bar(false, "the run completes: "+format, args...)}}
	}
	var bars []Bar
	var tables []*core.Table

	const p, kmvK = 10, 256
	const hllK = 1 << p
	const seed = 1 // sketchd's default hash seed — the shared-randomness scenario
	cfg := attack.Config{Seed: 11}

	// ---- Part 1: the attack breaks undefended sketches in O(k^2) ----
	// MaskTarget 64*K (vs the 32*K default) drives truth to ~8x the
	// saturation floor — still a vanishing fraction of the 64*K^2
	// budget. The defended runs in part 2 face the same strength.
	cfg.K, cfg.MaskTarget = hllK, 64*hllK
	hllRes, err := attack.Run(attack.NewHLLTarget(uint8(p), seed), attack.NewHLLTarget(uint8(p), seed), cfg)
	if err != nil {
		return fail("attack vs raw hll: %v", err)
	}
	cfg.K, cfg.MaskTarget = kmvK, 64*kmvK
	kmvRes, err := attack.Run(attack.NewKMVTarget(kmvK, seed), attack.NewKMVTarget(kmvK, seed), cfg)
	if err != nil {
		return fail("attack vs raw kmv: %v", err)
	}

	tbl1 := core.NewTable("undefended sketches vs the universal adaptive attack",
		"sketch", "k", "probed", "masked", "interactions", "budget_64k2", "to_fail", "final_rel_err")
	tbl1.AddRow("hll", hllK, hllRes.Probed, hllRes.Masked, hllRes.Interactions,
		attack.QuadraticBudget(hllK), hllRes.InteractionsToFail, hllRes.FinalRelError)
	tbl1.AddRow("kmv", kmvK, kmvRes.Probed, kmvRes.Masked, kmvRes.Interactions,
		attack.QuadraticBudget(kmvK), kmvRes.InteractionsToFail, kmvRes.FinalRelError)
	tables = append(tables, tbl1)
	brokeHLL := hllRes.FinalRelError >= 2 && hllRes.InteractionsToFail > 0 &&
		hllRes.InteractionsToFail <= attack.QuadraticBudget(hllK)
	brokeKMV := kmvRes.FinalRelError >= 2 && kmvRes.InteractionsToFail > 0 &&
		kmvRes.InteractionsToFail <= attack.QuadraticBudget(kmvK)
	bars = append(bars, bar(brokeHLL && brokeKMV,
		"attack drives raw hll to %.1fx and raw kmv to %.1fx relative error within the 64k^2 budget",
		hllRes.FinalRelError, kmvRes.FinalRelError))

	// ---- Part 2: every defense keeps error bounded ----
	const lambda = 24
	defenses := []struct {
		name string
		k    int
		mk   func() robust.Estimator
	}{
		{"switching-hll", hllK, func() robust.Estimator { return robust.NewSwitchingHLL(0.05, lambda, uint8(p), seed) }},
		{"switching-kmv", kmvK, func() robust.Estimator { return robust.NewSwitchingKMV(0.05, lambda, kmvK, seed) }},
		{"noisy-hll", hllK, func() robust.Estimator { return robust.NewNoisy(cardinality.NewHLL(uint8(p), seed), 0.1, seed) }},
		// q=1/8: 7/8 of hunted "masked" candidates were never hashed at
		// all, so the replayed attack set behaves mostly like an honest
		// stream. (Subsampling is a dilution defense — its strength
		// scales with 1/q, so q must shrink as the attack budget grows.)
		{"subsampled-hll", hllK, func() robust.Estimator { return robust.NewSubsampled(cardinality.NewHLL(uint8(p), seed), 0.125, seed) }},
		{"robustdistinct", hllK, func() robust.Estimator { return robust.NewDefendedDistinct(0.05, lambda, uint8(p), seed, 0.1, 0.5) }},
	}
	tbl2 := core.NewTable("defended wrappers under the same attack",
		"defense", "probed", "masked", "interactions", "final_rel_err", "bounded")
	allBounded := true
	for _, d := range defenses {
		cfg.K, cfg.MaskTarget = d.k, 64*d.k
		res, err := attack.Run(attack.NewEstimatorTarget(d.mk()), attack.NewEstimatorTarget(d.mk()), cfg)
		if err != nil {
			return fail("attack vs %s: %v", d.name, err)
		}
		bounded := res.FinalRelError < 2 && !math.IsInf(res.FinalRelError, 1)
		allBounded = allBounded && bounded
		tbl2.AddRow(d.name, res.Probed, res.Masked, res.Interactions, res.FinalRelError, bounded)
	}
	tables = append(tables, tbl2)
	bars = append(bars, bar(allBounded, "every defense holds the attack below 2x relative error"))

	// ---- Part 3: live sketchd — offline-hunted set transfers; the
	// query budget refuses the online hunt ----
	srv := server.New()
	srv.SetQueryBudget(server.QueryBudget{Queries: 256, Interval: time.Minute})
	hs, base, err := server.Listen("127.0.0.1:0", srv.Handler())
	if err != nil {
		return fail("serve: %v", err)
	}
	defer hs.Close()
	cl := client.New(base)

	// 3a: hunt locally against the default seed, replay into a live
	// undefended sketch — ~17 reads, far under budget. The transfer is
	// the threat model: any deployment leaving the default seed shares
	// randomness with the attacker's offline copy.
	const liveP = 8
	if err := cl.Create("raw-victim", server.CreateRequest{Type: "hll", P: liveP}); err != nil {
		return fail("create raw-victim: %v", err)
	}
	transferCfg := attack.Config{K: 1 << liveP, Seed: 11}
	transfer, err := attack.Run(attack.NewHLLTarget(liveP, seed), attack.NewServerTarget(cl, "raw-victim"), transferCfg)
	if err != nil {
		return fail("transfer attack: %v", err)
	}

	// 3b: the same online hunt against budget-guarded sketches is
	// refused long before it assembles an attack set.
	for _, name := range []string{"guard-probe", "guard-victim"} {
		if err := cl.Create(name, server.CreateRequest{Type: "hll", P: liveP}); err != nil {
			return fail("create %s: %v", name, err)
		}
	}
	guarded, err := attack.Run(attack.NewServerTarget(cl, "guard-probe"), attack.NewServerTarget(cl, "guard-victim"), transferCfg)
	if err != nil {
		return fail("guarded attack: %v", err)
	}

	// 3c: the refusal carries Retry-After, and ingest stays ungated.
	_, throttledErr := cl.Estimate("guard-probe", nil)
	var se *client.StatusError
	gotRetryAfter := errors.As(throttledErr, &se) && se.Code == 429 && se.RetryAfter > 0
	ingestErr := cl.Add("guard-probe", []string{"ingest-unthrottled"})
	var throttledGauge uint64
	if st, err := cl.Status(); err == nil {
		for _, t := range st.Tenants {
			throttledGauge += t.Throttled
		}
	}

	tbl3 := core.NewTable("live sketchd: attack-set transfer and the query-budget guard",
		"check", "result")
	tbl3.AddRow("offline-hunted set poisons live default-seed hll",
		fmt.Sprintf("%.1fx rel error after %d masked items", transfer.FinalRelError, transfer.Masked))
	tbl3.AddRow("online hunt vs -query-budget=256",
		fmt.Sprintf("refused=%v after %d interactions (%d masked)", guarded.Refused, guarded.Interactions, guarded.Masked))
	tbl3.AddRow("429 carries Retry-After", fmt.Sprintf("%v (retry after %v)", gotRetryAfter, se.RetryAfter))
	tbl3.AddRow("ingest ungated while throttled", okStr(ingestErr))
	tbl3.AddRow("throttled gauge on /v1/status", fmt.Sprintf("%d", throttledGauge))
	tables = append(tables, tbl3)
	bars = append(bars, bar(transfer.FinalRelError >= 2 && guarded.Refused && gotRetryAfter && ingestErr == nil && throttledGauge > 0,
		"the query budget refuses the online hunt with 429 + Retry-After while ingest flows, and the offline transfer shows why the guard exists"))

	// ---- Part 4: robustdistinct serves honest traffic accurately ----
	if err := cl.Create("honest", server.CreateRequest{Type: "robustdistinct", P: 12,
		Params: map[string]float64{"lambda": 8, "rho": 0.05}}); err != nil {
		return fail("create robustdistinct: %v", err)
	}
	const honestN = 4096
	items := make([]string, honestN)
	for i := range items {
		items[i] = fmt.Sprintf("honest-user-%d", i)
	}
	if err := cl.Add("honest", items); err != nil {
		return fail("honest ingest: %v", err)
	}
	doc, err := cl.Query("honest", nil)
	if err != nil {
		return fail("honest query: %v", err)
	}
	est, _ := doc["estimate"].(float64)
	copies, _ := doc["copies"].(float64)
	honestErr := math.Abs(est-honestN) / honestN

	tbl4 := core.NewTable("robustdistinct over HTTP: honest-stream utility",
		"truth", "estimate", "rel_err", "copies", "exhausted")
	tbl4.AddRow(honestN, est, honestErr, int(copies), doc["exhausted"])
	tables = append(tables, tbl4)
	bars = append(bars, bar(honestErr < 0.15 && int(copies) == 8,
		"served robustdistinct answers honest queries within %.1f%%", honestErr*100))

	return &Result{
		ID:     "E32",
		Title:  "adversarial robustness: quadratic-query attack vs the defended estimator family and the sketchd query budget",
		Claim:  "a fixed-randomness sketch is breakable in O(k^2) adaptive queries (Cohen–Nelson–Sarlós), and the paper's robustness pathway — switching, noise, subsampling, and query budgeting — holds the line: each defense keeps error bounded or refuses the query stream outright (§5 adversarial robustness)",
		Tables: tables,
		Bars:   bars,
	}
}
