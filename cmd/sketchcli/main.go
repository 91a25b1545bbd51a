// Command sketchcli builds, inspects and merges sketches from the
// command line — the practitioner-facing tool the paper's "pushing out
// code" pathway argues for. Every subcommand is registry-driven: sketch
// builds any family sketchd serves from stdin, read as sketchd reads an
// /add body, with sketchd's parameters and hash seed (1), so its -o
// envelope is the one sketchd's /snapshot would hold; inspect and merge
// take any envelope, which names its family by its wire tag. An answer
// is printed as sketchd's /query sends it: one JSON document a line.
//
// Examples:
//
//	cat access.log | awk '{print $1}' | sketchcli sketch hll
//	cat words.txt | sketchcli sketch spacesaving -k 80 -query k=10
//	cat latencies.txt | sketchcli sketch kll -query q=0.5 -query q=0.99
//	cat imps.tsv | sketchcli sketch hll -group   # campaign<TAB>user lines: reach per campaign, then overall
//	seq 1 100000 | sketchcli sketch hll -p 12 -o a.hll && sketchcli merge -o all.hll a.hll b.hll
//	curl -s sketchd:7600/v1/sketch/users/snapshot | sketchcli inspect /dev/stdin
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
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

func main() { os.Exit(run(os.Args[1:])) }

// run is the command: its exit status is 0, 1 for a failed subcommand
// (a bad flag or parameter among them) and 2 for an unknown one.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd, args := args[0], args[1:]
	var err error
	switch cmd {
	case "sketch":
		err = runSketch(args)
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
		return 2
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h has printed the flags
		fmt.Fprintln(os.Stderr, "sketchcli:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sketchcli <sketch|inspect|merge|types|cluster|redteam> [flags]
  sketch <family> [-<param> v]... [-query k=v]... [-group] [-o file]
                                sketch stdin as sketchd would an /add body and print
                                each -query's answer (default: the summary); -group
                                reads group<TAB>line, answers per group and then for
                                their union; -o writes the envelope instead
  inspect    <file>             identify and summarize any serialized sketch
  merge      -o out a b [...]   merge same-type serialized sketches
  types                         list every family, its parameters and line format
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

// chunkBytes is how much of stdin sketch reads before it hands the
// whole lines of it to an ingest: a sketchd /add body's worth.
var chunkBytes = 1 << 20

// runSketch builds a sketch of any servable family over stdin as
// sketchd builds one from /add bodies of the same bytes: the family's
// parameter schema as flags, Validate with sketchd's default seed 1, and
// Bind.Ingest over newline-aligned chunks. With -group each line is
// group<TAB>line, as POST /v1/ingest/groupby reads it, and each group is
// a sketch of its own; a mergeable family's groups are then answered
// for as one, their union, which is labelled with no group.
func runSketch(args []string) error {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: sketchcli sketch <family> [-<param> v]... [-query k=v]... [-group] [-o file]")
	}
	d, ok := registry.Lookup(args[0])
	if !ok || !d.Servable() {
		return fmt.Errorf("%q is not a family sketchd serves (sketchcli types lists them)", args[0])
	}
	fs := flag.NewFlagSet("sketch "+d.Name, flag.ContinueOnError)
	raw := map[string]float64{}
	for _, p := range d.Params {
		fs.Func(p.Name, fmt.Sprintf("%s (default %g, in [%g,%g])", p.Doc, p.Def, p.Min, p.Max), func(s string) (err error) {
			raw[p.Name], err = strconv.ParseFloat(s, 64)
			return err
		})
	}
	var queries []url.Values
	fs.Func("query", "answer the `k=v[&k=v]` query of sketchd's /query; repeatable (default: the summary)", func(s string) error {
		q, err := url.ParseQuery(s)
		queries = append(queries, q)
		return err
	})
	group := fs.Bool("group", false, "read group<TAB>line and answer per group, then for their union")
	out := fs.String("o", "", `write the envelope here ("-" for stdout) instead of answering`)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("sketch %s: unexpected argument %q", d.Name, fs.Arg(0))
	case *out != "" && (*group || queries != nil):
		return fmt.Errorf("sketch %s: -o writes the one sketch; it takes neither -query nor -group", d.Name)
	case queries == nil:
		queries = []url.Values{{}}
	}
	params, err := d.Validate(1, raw)
	if err != nil {
		return err
	}
	// insts[""] is the sketch of every line: without -group the one
	// sketch, with it the groups' union, where the family merges.
	insts := map[string]any{}
	if !*group || d.Mergeable() {
		if insts[""], err = d.New(params); err != nil {
			return err
		}
	}
	// Stdin goes in a buffer of whole lines at a time, so memory stays
	// bounded whatever the stream's length; the buffer grows only for a
	// line longer than it.
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, chunkBytes), math.MaxInt)
	sc.Split(func(data []byte, eof bool) (int, []byte, error) {
		end := bytes.LastIndexByte(data, '\n') + 1
		if eof {
			end = len(data)
		}
		if end == 0 {
			return 0, nil, nil
		}
		return end, data[:end], nil
	})
	bodies := map[string][]byte{}
	for n := 1; sc.Scan(); {
		body := sc.Bytes()
		first, last := n, n+bytes.Count(body[:len(body)-1], []byte{'\n'})
		n = last + 1
		if !*group {
			bodies[""] = body
		}
		for at := first; *group && len(body) > 0; at++ {
			var line []byte
			if line, body = registry.CutLine(body); len(line) == 0 {
				continue
			}
			tab := bytes.IndexByte(line, '\t')
			if tab <= 0 {
				return fmt.Errorf("stdin line %d: missing group<TAB>item", at)
			}
			g := string(line[:tab])
			bodies[g] = append(append(bodies[g], line[tab+1:]...), '\n')
		}
		for g, b := range bodies {
			if insts[g] == nil {
				if insts[g], err = d.New(params); err != nil {
					return err
				}
			}
			if _, err := d.Bind.Ingest(insts[g], b); err != nil {
				if *group {
					err = fmt.Errorf("group %q: %w", g, err)
				}
				return fmt.Errorf("stdin lines %d-%d: %w", first, last, err)
			}
			bodies[g] = b[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if *out != "" {
		env, err := registry.Marshal(insts[""])
		if err != nil {
			return err
		}
		return writeOut(*out, env)
	}
	names := make([]string, 0, len(insts))
	for g := range insts {
		if g != "" {
			names = append(names, g)
		}
	}
	sort.Strings(names)
	if union := insts[""]; union != nil {
		for _, g := range names {
			if err := d.Bind.Merge(union, insts[g]); err != nil {
				return err
			}
		}
		names = append(names, "")
	}
	for _, g := range names {
		if err := answer(d, insts[g], g, queries); err != nil {
			return err
		}
	}
	return nil
}

// answer is how every subcommand prints an answer: inst's to each
// query, as the bytes sketchd's /query sends — one JSON document and a
// newline — behind label and a tab when label is set.
func answer(d *registry.Descriptor, inst any, label string, queries []url.Values) error {
	for _, q := range queries {
		doc, err := d.Bind.Query(inst, q)
		if err == nil && label != "" {
			_, err = fmt.Print(label, "\t")
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(doc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeOut writes an envelope to path, or to stdout for "-".
func writeOut(path string, env []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(env)
		return err
	}
	return os.WriteFile(path, env, 0o644)
}

// mergeAll is the one merge of envelopes in the command:
// registry.MergeEnvelopes — as bytes where the family merges on the
// wire, else a parallel binary tree across GOMAXPROCS cores — folding
// into envs[0], and the merged envelope.
func mergeAll(envs [][]byte) (registry.Merged, []byte, error) {
	merged, err := registry.MergeEnvelopes(envs)
	if err != nil {
		return merged, nil, fmt.Errorf("%w (envelopes are numbered from 0, in the order given)", err)
	}
	env, err := merged.Envelope(nil)
	return merged, env, err
}

// runInspect decodes any serialized sketch through the registry and
// prints its identity plus the family's parameter-free summary query —
// the same document sketchd serves on /query with no parameters.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
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
	return answer(d, inst, "", []url.Values{{}})
}

// runMerge folds any number of same-type envelopes into one, writing
// the merged envelope to -o (or stdout with "-"). Distributed
// aggregation from the command line: each input self-describes and the
// registry supplies the merge (mergeAll). Incompatible inputs fail
// loudly.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
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
	_, env, err := mergeAll(envs)
	if err != nil {
		return err
	}
	return writeOut(*out, env)
}

// runTypes prints the registry catalog: every family, its wire tag,
// capabilities, line format and parameter schema.
func runTypes(args []string) error {
	fs := flag.NewFlagSet("types", flag.ContinueOnError)
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
		fmt.Printf("%-18s tag %2d  %-12s [%s]  %s; lines: %s\n", d.Name, d.Tag, d.Family, strings.Join(caps, ","), d.Doc, d.Input)
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
	fs := flag.NewFlagSet("redteam", flag.ContinueOnError)
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
	// The registry's schemas bound -p and -k as a sketchd create would:
	// p in [4,18] before 1<<p or uint8(p) can wrap, and k >= 3.
	hll, _ := registry.Lookup("hll")
	if _, err := hll.Validate(1, map[string]float64{"p": float64(*p)}); err != nil {
		return err
	}
	if *k == 0 {
		*k = 1 << *p
	}
	kmv, _ := registry.Lookup("kmv")
	if _, err := kmv.Validate(1, map[string]float64{"k": float64(*k)}); err != nil {
		return err
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
