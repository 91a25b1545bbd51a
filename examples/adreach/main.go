// Adreach demonstrates the paper's online-advertising application
// (§3): campaign reach measurement with mergeable HLL sketches —
// distinct users per campaign, sliced by demographics, rolled up
// without double counting, and compared against exact ground truth.
//
//	go run ./examples/adreach [-n 400000] [-campaigns 8] [-users 150000] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adtech"
	"repro/internal/core"
)

func main() {
	impressions := flag.Int("n", 400_000, "impressions to generate")
	campaigns := flag.Int("campaigns", 8, "number of campaigns")
	users := flag.Int("users", 150_000, "size of the user population")
	seed := flag.Uint64("seed", 7, "generator seed (the reporter's is seed+1)")
	flag.Parse()
	if *campaigns < 1 || *users < 1 {
		fmt.Fprintln(os.Stderr, "adreach: -campaigns and -users must be at least 1")
		os.Exit(2)
	}

	gen := adtech.NewGenerator(*campaigns, *users, *seed)
	rep := adtech.NewReporter(14, *seed+1)

	exact := map[int]map[uint64]bool{}
	for i := 0; i < *impressions; i++ {
		imp := gen.Next()
		rep.Record(imp)
		if exact[imp.CampaignID] == nil {
			exact[imp.CampaignID] = map[uint64]bool{}
		}
		exact[imp.CampaignID][imp.UserID] = true
	}

	fmt.Printf("%d impressions recorded into %d sketches (%d KiB total)\n\n",
		*impressions, rep.SketchCount(), rep.SizeBytes()/1024)

	tbl := core.NewTable("Reach per campaign", "campaign", "sketch", "exact", "relerr")
	for _, c := range rep.Campaigns() {
		est := rep.Reach(c)
		truth := float64(len(exact[c]))
		tbl.AddRow(c, est, truth, core.RelErr(est, truth))
	}
	fmt.Println(tbl.String())

	// Slice and dice: campaign 1 by region and device.
	for _, dim := range []string{"region", "device"} {
		fmt.Printf("campaign 1 by %s:\n", dim)
		values := adtech.Regions
		if dim == "device" {
			values = adtech.Devices
		}
		for _, v := range values {
			fmt.Printf("  %-8s ~%.0f users\n", v, rep.SliceReach(1, dim, v))
		}
		rollup, err := rep.RollupReach(1, dim)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  rollup == campaign total: %v\n\n", rollup == rep.Reach(1))
	}

	combined, err := rep.CombinedReach(rep.Campaigns()...)
	if err != nil {
		panic(err)
	}
	var naiveSum float64
	for _, c := range rep.Campaigns() {
		naiveSum += rep.Reach(c)
	}
	fmt.Printf("naive sum of reaches:     %.0f (double counts multi-campaign users)\n", naiveSum)
	fmt.Printf("deduplicated total reach: %.0f\n", combined)
}
