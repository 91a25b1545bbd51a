// Command sketchcli builds sketches over newline-delimited items from
// stdin and answers queries — the practitioner-facing tool the paper's
// "pushing out code" pathway argues for.
//
// Usage:
//
//	sketchcli distinct [-p 14]              # count distinct lines (HLL)
//	sketchcli topk [-k 20]                  # heavy hitters (SpaceSaving)
//	sketchcli quantiles [-q .5,.9,.99]      # numeric quantiles (KLL)
//	sketchcli membership -query item [...]  # Bloom filter membership
//	sketchcli f2                            # second frequency moment (AMS)
//	sketchcli inspect file.bin              # identify + summarize any envelope
//	sketchcli merge -o out.bin a.bin b.bin  # merge same-type envelopes
//	sketchcli types                         # list every registered family
//
// inspect, merge, and types are fully registry-driven: they work for
// every sketch family without naming a single one, because each GSK1
// envelope self-describes its type through the wire tag.
//
// Examples:
//
//	cat access.log | awk '{print $1}' | sketchcli distinct
//	cat words.txt | sketchcli topk -k 10
//	cat latencies.txt | sketchcli quantiles -q 0.5,0.99
//	curl -s sketchd:7600/v1/sketch/users/snapshot | sketchcli inspect /dev/stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	sketch "repro"
	"repro/internal/registry"
	"repro/internal/robust"
	"repro/internal/robust/attack"
	sketchclient "repro/internal/server/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "distinct":
		err = runDistinct(args)
	case "topk":
		err = runTopK(args)
	case "quantiles":
		err = runQuantiles(args)
	case "membership":
		err = runMembership(args)
	case "f2":
		err = runF2(args)
	case "reach":
		err = runReach(args)
	case "inspect":
		err = runInspect(args)
	case "merge":
		err = runMerge(args)
	case "types":
		err = runTypes(args)
	case "cluster":
		err = runCluster(args)
	case "redteam":
		err = runRedteam(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sketchcli <distinct|topk|quantiles|membership|f2|reach|inspect|merge|types|cluster|redteam> [flags]
  distinct   [-p precision]     estimate distinct lines with HyperLogLog
  topk       [-k counters]      heavy hitters with SpaceSaving
  quantiles  [-q q1,q2,...]     numeric quantiles with KLL
  membership -query item [...]  Bloom-filter membership of query items
  f2                            second frequency moment with AMS
  reach      [-p precision]     per-group distinct counts from "group,id" lines
  inspect    <file>             identify and summarize any serialized sketch
  merge      -o out a b [...]   merge same-type serialized sketches
  types                         list every registered sketch family
  cluster status -shards a,b [-tenants|-tenant t]
                                per-shard health, durability, replication lag,
                                optionally with per-tenant gauge rows
  cluster merge  -shards a,b -name s [-tenant t] [-o out]
                                scatter-gather a sketch and merge it locally
  redteam    [-mode hll] [-p 10] [-seed 1] [-url http://host:7600 -sketch s]
                                run the quadratic adaptive attack against a local
                                estimator pair, or transfer it onto a live sketchd
                                sketch sharing the seed`)
}

func scanLines(fn func(line string)) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			fn(line)
		}
	}
	return sc.Err()
}

func runDistinct(args []string) error {
	fs := flag.NewFlagSet("distinct", flag.ExitOnError)
	p := fs.Int("p", 14, "HLL precision (4-18)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := sketch.NewHLL(uint8(*p), 0)
	var n uint64
	if err := scanLines(func(line string) { h.AddString(line); n++ }); err != nil {
		return err
	}
	fmt.Printf("lines:    %d\n", n)
	fmt.Printf("distinct: %.0f (±%.1f%% expected)\n", h.Estimate(), 100*h.StandardError())
	fmt.Printf("sketch:   %d bytes\n", h.SizeBytes())
	return nil
}

func runTopK(args []string) error {
	fs := flag.NewFlagSet("topk", flag.ExitOnError)
	k := fs.Int("k", 20, "number of counters / results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss := sketch.NewSpaceSaving(*k * 4) // extra counters sharpen the top-k
	if err := scanLines(func(line string) { ss.Add(line, 1) }); err != nil {
		return err
	}
	entries := ss.Entries()
	if len(entries) > *k {
		entries = entries[:*k]
	}
	for i, e := range entries {
		fmt.Printf("%3d  %-40s ~%d (>=%d)\n", i+1, e.Item, e.Count, ss.GuaranteedCount(e.Item))
	}
	return nil
}

func runQuantiles(args []string) error {
	fs := flag.NewFlagSet("quantiles", flag.ExitOnError)
	qs := fs.String("q", "0.5,0.9,0.99", "comma-separated quantiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kll := sketch.NewKLL(200, 0)
	var skipped int
	if err := scanLines(func(line string) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			skipped++
			return
		}
		kll.Add(v)
	}); err != nil {
		return err
	}
	if kll.N() == 0 {
		return fmt.Errorf("no numeric input")
	}
	fmt.Printf("n: %d  min: %g  max: %g\n", kll.N(), kll.Min(), kll.Max())
	for _, qStr := range strings.Split(*qs, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(qStr), 64)
		if err != nil {
			return fmt.Errorf("bad quantile %q: %v", qStr, err)
		}
		fmt.Printf("q%.4g: %g\n", q, kll.Quantile(q))
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "(skipped %d non-numeric lines)\n", skipped)
	}
	return nil
}

func runMembership(args []string) error {
	fs := flag.NewFlagSet("membership", flag.ExitOnError)
	query := fs.String("query", "", "comma-separated items to test")
	fpr := fs.Float64("fpr", 0.01, "target false positive rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf("membership requires -query")
	}
	var lines []string
	if err := scanLines(func(line string) { lines = append(lines, line) }); err != nil {
		return err
	}
	f := sketch.NewBloomWithEstimates(uint64(len(lines))+1, *fpr, 0)
	for _, l := range lines {
		f.AddString(l)
	}
	for _, q := range strings.Split(*query, ",") {
		q = strings.TrimSpace(q)
		verdict := "definitely absent"
		if f.ContainsString(q) {
			verdict = fmt.Sprintf("maybe present (FPR %.2g)", f.EstimatedFPR())
		}
		fmt.Printf("%-40s %s\n", q, verdict)
	}
	return nil
}

// runReach reads "group,id" lines and reports distinct ids per group
// plus the deduplicated total — the ad-reach pipeline over stdin.
func runReach(args []string) error {
	fs := flag.NewFlagSet("reach", flag.ExitOnError)
	p := fs.Int("p", 14, "HLL precision (4-18)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	groups := map[string]*sketch.HLLSketch{}
	total := sketch.NewHLL(uint8(*p), 0)
	var badLines int
	if err := scanLines(func(line string) {
		group, id, ok := strings.Cut(line, ",")
		if !ok {
			badLines++
			return
		}
		h, found := groups[group]
		if !found {
			h = sketch.NewHLL(uint8(*p), 0)
			groups[group] = h
		}
		h.AddString(id)
		total.AddString(id)
	}); err != nil {
		return err
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		fmt.Printf("%-30s %.0f\n", g, groups[g].Estimate())
	}
	fmt.Printf("%-30s %.0f (union of all groups)\n", "TOTAL", total.Estimate())
	if badLines > 0 {
		fmt.Fprintf(os.Stderr, "(skipped %d malformed lines)\n", badLines)
	}
	return nil
}

// runInspect decodes any serialized sketch through the registry and
// prints its identity plus the family's parameter-free summary query —
// the same document sketchd serves on /query with no parameters.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sketchcli inspect <file>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	inst, d, err := registry.Decode(data)
	if err != nil {
		return err
	}
	fmt.Printf("type:     %s (%s)\n", d.Name, d.Family)
	fmt.Printf("doc:      %s\n", d.Doc)
	fmt.Printf("tag:      %d\n", d.Tag)
	fmt.Printf("envelope: %d bytes\n", len(data))
	fmt.Printf("memory:   %d bytes\n", registry.SizeOf(inst))
	if d.Bind.Query == nil {
		return nil
	}
	doc, err := d.Bind.Query(inst, url.Values{})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-9s %v\n", k+":", doc[k])
	}
	return nil
}

// runMerge folds any number of same-type envelopes into one, writing
// the merged envelope to -o (or stdout with "-"). Distributed
// aggregation from the command line: each input self-describes and the
// registry supplies the merge (registry.MergeEnvelopes: as bytes where
// the family merges on the wire, else a parallel binary tree across
// GOMAXPROCS cores). Incompatible inputs fail loudly.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "-", `output file ("-" for stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: sketchcli merge -o out.bin a.bin b.bin [...]")
	}
	envs := make([][]byte, fs.NArg())
	for i, path := range fs.Args() {
		var err error
		if envs[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}
	merged, err := registry.MergeEnvelopes(envs)
	if err != nil {
		return fmt.Errorf("%w (envelopes are numbered from 0, in the order given)", err)
	}
	env, err := merged.Envelope(nil)
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err = os.Stdout.Write(env)
		return err
	}
	return os.WriteFile(*out, env, 0o644)
}

// runTypes prints the registry catalog: every family, its wire tag,
// capabilities, and parameter schema.
func runTypes(args []string) error {
	fs := flag.NewFlagSet("types", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, d := range registry.All() {
		caps := make([]string, 0, 2)
		if d.Mergeable() {
			caps = append(caps, "merge")
		}
		if d.Servable() {
			caps = append(caps, "serve")
		}
		fmt.Printf("%-18s tag %2d  %-12s [%s]  %s\n", d.Name, d.Tag, d.Family, strings.Join(caps, ","), d.Doc)
		for _, p := range d.Params {
			fmt.Printf("    -%-10s default %-8g [%g,%g]  %s\n", p.Name, p.Def, p.Min, p.Max, p.Doc)
		}
	}
	return nil
}

// runRedteam mounts the universal adaptive attack (Cohen–Nelson–
// Sarlós, see internal/robust/attack) from the command line: against a
// local probe/victim pair of the chosen mode, or — with -url — a
// transfer attack where the mask hunt runs against a local probe and
// the masked set is replayed into a live sketchd sketch created with
// the same seed. Prints the attack curve and a verdict.
func runRedteam(args []string) error {
	fs := flag.NewFlagSet("redteam", flag.ExitOnError)
	mode := fs.String("mode", "hll",
		"target: hll | kmv | switching | switching-kmv | noisy | subsampled | robustdistinct")
	p := fs.Int("p", 10, "HLL precision for hll-backed modes (4-18)")
	k := fs.Int("k", 0, "KMV minima for kmv modes (default 2^p)")
	seed := fs.Uint64("seed", 1, "hash seed shared by probe and victim (sketchd default: 1)")
	baseURL := fs.String("url", "", "live sketchd base URL (transfer attack)")
	name := fs.String("sketch", "", "live victim sketch name (with -url)")
	tenant := fs.String("tenant", "", "tenant namespace for the live victim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k == 0 {
		*k = 1 << *p
	}
	cfg := attack.Config{K: 1 << *p, Seed: *seed ^ 0xc1}
	pair := func(mk func() robust.Estimator) (attack.Target, attack.Target) {
		return attack.NewEstimatorTarget(mk()), attack.NewEstimatorTarget(mk())
	}
	var probe, victim attack.Target
	switch *mode {
	case "hll":
		probe, victim = attack.NewHLLTarget(uint8(*p), *seed), attack.NewHLLTarget(uint8(*p), *seed)
	case "kmv":
		cfg.K = *k
		probe, victim = attack.NewKMVTarget(*k, *seed), attack.NewKMVTarget(*k, *seed)
	case "switching":
		probe, victim = pair(func() robust.Estimator { return robust.NewSwitchingHLL(0.05, 24, uint8(*p), *seed) })
	case "switching-kmv":
		cfg.K = *k
		probe, victim = pair(func() robust.Estimator { return robust.NewSwitchingKMV(0.05, 24, *k, *seed) })
	case "noisy":
		probe, victim = pair(func() robust.Estimator {
			return robust.NewNoisy(sketch.NewHLL(uint8(*p), *seed), 0.1, *seed)
		})
	case "subsampled":
		probe, victim = pair(func() robust.Estimator {
			return robust.NewSubsampled(sketch.NewHLL(uint8(*p), *seed), 0.125, *seed)
		})
	case "robustdistinct":
		probe, victim = pair(func() robust.Estimator {
			return robust.NewDefendedDistinct(0.05, 24, uint8(*p), *seed, 0.1, 0.5)
		})
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	// Hunt a 64·K attack set — the same strengthened budget E32 uses,
	// enough to push a raw sketch past 2x while staying well inside the
	// quadratic bound.
	cfg.MaskTarget = 64 * cfg.K
	if *baseURL != "" {
		if *name == "" {
			return fmt.Errorf("redteam -url requires -sketch")
		}
		cl := sketchclient.New(*baseURL)
		if *tenant != "" {
			cl = cl.Tenant(*tenant)
		}
		victim = attack.NewServerTarget(cl, *name)
	}

	res, err := attack.Run(probe, victim, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("mode: %s  k: %d  quadratic budget: %d interactions\n",
		*mode, cfg.K, attack.QuadraticBudget(cfg.K))
	fmt.Printf("hunt: probed %d candidates, masked %d; total interactions %d\n",
		res.Probed, res.Masked, res.Interactions)
	if res.Refused {
		fmt.Println("verdict: REFUSED — the query budget cut the attack off (429)")
		return nil
	}
	fmt.Printf("%12s %12s %12s %10s\n", "interactions", "truth", "estimate", "rel-error")
	for _, pt := range res.Curve {
		fmt.Printf("%12d %12.0f %12.0f %9.2fx\n", pt.Interactions, pt.Truth, pt.Estimate, pt.RelError)
	}
	switch {
	case res.InteractionsToFail >= 0:
		fmt.Printf("verdict: BROKEN — %.2fx relative error; failed at %d interactions (budget %d)\n",
			res.FinalRelError, res.InteractionsToFail, attack.QuadraticBudget(cfg.K))
	default:
		fmt.Printf("verdict: bounded — %.2fx relative error after the full attack set\n", res.FinalRelError)
	}
	return nil
}

func runF2(args []string) error {
	fs := flag.NewFlagSet("f2", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := sketch.NewAMS(9, 256, 0)
	var n uint64
	if err := scanLines(func(line string) { a.Update([]byte(line)); n++ }); err != nil {
		return err
	}
	fmt.Printf("lines: %d\n", n)
	fmt.Printf("F2 (self-join size): %.0f\n", a.F2())
	return nil
}
