package cluster

// Ingest is partitioned by who received the batch, not by key: a body
// goes whole to one shard in rotation. What that keeps (cell-wise
// families bit-identical under any partition, a batch on one shard or on
// none), what it gives up (key affinity's tighter heavy-hitter constant,
// never the bound), and what it costs (one shard request per /add).

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/frequency"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// zipfBodies renders the benchmark's traffic (benchmark/gen: Zipf 1.1
// over 2^22 flows, weights 1–9, 1024 lines a body) as weighted request
// bodies, with the exact weight of every flow and of the whole stream.
func zipfBodies(seed int64, bodies int) (weighted [][]byte, truth map[string]uint64, total uint64) {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.1, 1, 1<<22-1)
	truth = map[string]uint64{}
	for b := 0; b < bodies; b++ {
		var body bytes.Buffer
		for i := 0; i < 1024; i++ {
			key, w := "flow"+strconv.FormatUint(z.Uint64(), 10), uint64(1+r.Intn(9))
			fmt.Fprintf(&body, "%s\t%d\n", key, w)
			truth[key] += w
			total += w
		}
		weighted = append(weighted, body.Bytes())
	}
	return weighted, truth, total
}

// plainLines strips the weights: the same keys for families that take
// bare items.
func plainLines(weighted []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSuffix(weighted, []byte("\n")), []byte("\n")) {
		key, _, _ := bytes.Cut(line, []byte("\t"))
		out.Write(key)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestAnyPartitionSameBytes: every family that merges cell-wise
// (registry.Descriptor.MergeWire) answers, through 1, 3 and 4 shards,
// from one client and from four concurrent ones — so which batch lands
// on which shard is the scheduler's choice, not the test's — the very
// bytes one server holds after the same batches, and an exact n, at one
// shard request per /add whatever the shard count. The one exception is older than this partition: sfsketch raises its slim
// counters conditionally, so they depend on arrival order even on one
// server (and differed under key routing too); its fat stage is linear
// and is held to the same identity, its slim stage to never
// under-counting.
func TestAnyPartitionSameBytes(t *testing.T) {
	weighted, truth, total := zipfBodies(7, 24)
	var families []*registry.Descriptor
	for _, d := range registry.All() {
		if d.MergeWire != nil {
			families = append(families, d)
		}
	}
	if len(families) < 6 {
		t.Fatalf("%d families merge on the wire, want the six cell-wise ones", len(families))
	}
	plain := make([][]byte, len(weighted))
	for b := range weighted {
		plain[b] = plainLines(weighted[b])
	}
	body := func(d *registry.Descriptor, b int) []byte {
		if d.Input == registry.InputItems {
			return plain[b]
		}
		return weighted[b]
	}
	scl := client.New(newFleet(t, 1).nodes[0].URL)
	for _, d := range families {
		if err := scl.Create(d.Name, server.CreateRequest{Type: d.Name, Seed: 3}); err != nil {
			t.Fatalf("create %s: %v", d.Name, err)
		}
		for b := range weighted {
			if err := scl.AddBatch(d.Name, body(d, b)); err != nil {
				t.Fatalf("add %s: %v", d.Name, err)
			}
		}
	}
	for _, shards := range []int{1, 3, 4} {
		for _, clients := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/clients=%d", shards, clients), func(t *testing.T) {
				coord, base := newFleet(t, shards).coordinator()
				cl := client.New(base)
				for _, d := range families {
					if err := cl.Create(d.Name, server.CreateRequest{Type: d.Name, Seed: 3}); err != nil {
						t.Fatalf("create %s: %v", d.Name, err)
					}
				}
				before := coord.ops.snapshot()
				var wg sync.WaitGroup
				for g := 0; g < clients; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for b := g; b < len(weighted); b += clients {
							for _, d := range families {
								if err := cl.AddBatch(d.Name, body(d, b)); err != nil {
									t.Errorf("add %s: %v", d.Name, err)
								}
							}
						}
					}()
				}
				wg.Wait()
				after, adds := coord.ops.snapshot(), uint64(len(weighted)*len(families))
				if reqs, items := after.ShardRequests-before.ShardRequests, after.Adds-before.Adds; reqs != adds || items != adds*1024 {
					t.Errorf("%d /add requests of 1024 lines: %d shard requests, %d items acknowledged, want one request each and the shards' own counts relayed", adds, reqs, items)
				}
				for _, d := range families {
					got, err := cl.Snapshot(d.Name)
					if err != nil {
						t.Fatalf("snapshot %s: %v", d.Name, err)
					}
					want, _ := scl.Snapshot(d.Name)
					if d.Name == "sfsketch" {
						sameFatStage(t, got, want, truth, total)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s: the cluster's merged envelope (%d bytes) is not one server's (%d bytes)", d.Name, len(got), len(want))
					}
				}
				if res, err := cl.Query("countmin", nil); err != nil || res["n"] != float64(total) {
					t.Errorf("countmin n %v (%v), want the stream's weight %d", res["n"], err, total)
				}
			})
		}
	}
}

// TestCoordinatorAnswersAsOneServer: for the three families sketchd
// buffers, the coordinator's answer over 4 shards — summary and point
// queries alike — is a single server's fed the same batches, key for key
// and value for value, but for the shards_merged it adds. A served
// instance answers what the plain sketch the coordinator merges answers.
func TestCoordinatorAnswersAsOneServer(t *testing.T) {
	weighted, _, _ := zipfBodies(11, 8)
	scl := client.New(newFleet(t, 1).nodes[0].URL)
	_, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	for _, family := range []string{"hll", "countmin", "blockedbloom"} {
		d, _ := registry.Lookup(family)
		for _, c := range []*client.Client{scl, cl} {
			if err := c.Create(family, server.CreateRequest{Type: family, Seed: 5}); err != nil {
				t.Fatalf("create %s: %v", family, err)
			}
			for _, body := range weighted {
				if d.Input == registry.InputItems {
					body = plainLines(body)
				}
				if err := c.AddBatch(family, body); err != nil {
					t.Fatalf("add %s: %v", family, err)
				}
			}
		}
		for _, q := range []url.Values{{}, {"item": {"flow1"}}, {"item": {"flow2"}}, {"item": {"never-seen"}}} {
			want, err := scl.Query(family, q)
			if err != nil {
				t.Fatalf("%s %v on one server: %v", family, q, err)
			}
			got, err := cl.Query(family, q)
			if err != nil {
				t.Fatalf("%s %v through the coordinator: %v", family, q, err)
			}
			delete(got, "shards_merged")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: the coordinator answers %v, one server %v", family, q, got, want)
			}
		}
	}
}

// sameFatStage holds two full sfsketch envelopes of one stream to what
// no arrival order changes: n, every fat-stage estimate, and a slim
// stage that never under-counts.
func sameFatStage(t *testing.T, got, want []byte, truth map[string]uint64, total uint64) {
	t.Helper()
	var sf [2]*frequency.SFSketch
	for i, env := range [][]byte{got, want} {
		inst, _, err := registry.Decode(env)
		if err != nil {
			t.Fatalf("sfsketch envelope: %v", err)
		}
		sf[i] = inst.(*frequency.SFSketch)
	}
	if sf[0].N() != total || sf[1].N() != total {
		t.Errorf("sfsketch n: cluster %d, one server %d, want %d", sf[0].N(), sf[1].N(), total)
	}
	for key, w := range truth {
		if a, b := sf[0].FatEstimate([]byte(key)), sf[1].FatEstimate([]byte(key)); a != b {
			t.Fatalf("sfsketch fat stage: %s is %d on the cluster, %d on one server", key, a, b)
		}
		if est := sf[0].Estimate([]byte(key)); est < w {
			t.Fatalf("sfsketch slim stage under-counts %s: %d, true %d", key, est, w)
		}
	}
}

// A stream that is one key repeated used to land on one shard; now every
// shard takes its turn, and the busiest is at most one batch ahead of
// the idlest.
func TestOneHotKeySpreadsOverShards(t *testing.T) {
	coord, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	if err := cl.Create("hot", server.CreateRequest{Type: "countmin", Width: 256, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	batch := bytes.Repeat([]byte("the-one-key\t2\n"), 100)
	const batches = 30
	for i := 0; i < batches; i++ {
		if err := cl.AddBatch("hot", batch); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := uint64(batches), uint64(0)
	for _, row := range coord.Status().Shards {
		n := row.Status.Ops.AddBatches
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 || lo == 0 {
		t.Errorf("%d batches of one key: shards took between %d and %d, want within one batch of each other", batches, lo, hi)
	}
	res, err := cl.Query("hot", url.Values{"item": {"the-one-key"}})
	if err != nil || res["estimate"] != float64(batches*100*2) {
		t.Errorf("merged estimate %v (%v), want %d", res["estimate"], err, batches*100*2)
	}
}

// shardSnapshots reads one sketch's envelope off every shard directly.
func shardSnapshots(t *testing.T, shards []*node, name string) [][]byte {
	t.Helper()
	return shardEnvs(t, shards, name, "")
}

// shardEnvs reads one sketch's envelope in a wire form ("" for full)
// off every shard directly; a plain snapshot read does not move a
// shard's tag.
func shardEnvs(t *testing.T, shards []*node, name, wire string) [][]byte {
	t.Helper()
	envs := make([][]byte, len(shards))
	for i, sh := range shards {
		env, err := client.New(sh.URL).SnapshotWire(name, wire)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	return envs
}

// A batch is validated and applied by one shard or by none: a bad line
// in the middle answers 400 with that shard's message and leaves every
// shard's state as it was, whichever shard's turn it is. Splitting the
// body by key used to apply the slices that held only good lines.
func TestBadLineAppliesNowhere(t *testing.T) {
	f := newFleet(t, 4)
	shards := f.nodes
	_, base := f.coordinator()
	cl := client.New(base)
	if err := cl.Create("cm", server.CreateRequest{Type: "countmin", Width: 512, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	good := weightedBatch(false)
	for i := 0; i < 2*len(shards); i++ {
		if err := cl.AddBatch("cm", good); err != nil {
			t.Fatal(err)
		}
	}
	before := shardSnapshots(t, shards, "cm")
	lines := bytes.SplitAfter(good, []byte("\n"))
	bad := string(bytes.Join(lines[:500], nil)) + "flow-9\tmany\n" + string(bytes.Join(lines[500:], nil))
	refusedBy := map[string]bool{}
	for range shards {
		r := send(t, base, server.Named("add"), "", probe{sketch: "cm", body: bad})
		if r.status != http.StatusBadRequest || !strings.Contains(string(r.body), "many") {
			t.Fatalf("HTTP %d %s, want 400 with the shard's message quoting the bad weight", r.status, r.body)
		}
		for _, sh := range shards {
			if strings.Contains(string(r.body), sh.URL) {
				refusedBy[sh.URL] = true
			}
		}
	}
	if len(refusedBy) != len(shards) {
		t.Errorf("%d sends were refused by %d distinct shards, want every shard to have had its turn", len(shards), len(refusedBy))
	}
	for i, env := range shardSnapshots(t, shards, "cm") {
		if !bytes.Equal(env, before[i]) {
			t.Errorf("shard %d changed under a refused batch", i)
		}
	}
}

// What whole-batch routing gives up is key affinity's tighter constant,
// not the guarantee: counter-based heavy hitters fed the benchmark's
// Zipf stream through four shards answer each of the 100 hottest flows
// within the bound the merged summary itself reports.
func TestHeavyHittersWithinReportedBound(t *testing.T) {
	const k = 256
	weighted, truth, total := zipfBodies(1, 256)
	hottest := make([]string, 0, len(truth))
	for key := range truth {
		hottest = append(hottest, key)
	}
	sort.Slice(hottest, func(i, j int) bool {
		if truth[hottest[i]] != truth[hottest[j]] {
			return truth[hottest[i]] > truth[hottest[j]]
		}
		return hottest[i] < hottest[j]
	})
	_, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	for _, family := range []string{"misragries", "spacesaving"} {
		if err := cl.Create(family, server.CreateRequest{Type: family, K: k}); err != nil {
			t.Fatal(err)
		}
		for _, body := range weighted {
			if err := cl.AddBatch(family, body); err != nil {
				t.Fatal(err)
			}
		}
		var worst float64
		for _, key := range hottest[:100] {
			res, err := cl.Query(family, url.Values{"item": {key}})
			if err != nil {
				t.Fatal(err)
			}
			if res["n"] != float64(total) {
				t.Fatalf("%s: merged n %v, want %d", family, res["n"], total)
			}
			bound, reported := res["error_bound"].(float64) // misragries: N/(k+1)
			if !reported {
				bound = float64(total / k) // spacesaving: N/k
			}
			off := res["estimate"].(float64) - float64(truth[key])
			worst = max(worst, max(off, -off))
			if off > bound || -off > bound {
				t.Errorf("%s: %s estimated %v, true %d: off by more than the bound %v", family, key, res["estimate"], truth[key], bound)
			}
		}
		t.Logf("%s k=%d: worst error on the 100 hottest flows %v, N/k %d", family, k, worst, total/k)
	}
}
