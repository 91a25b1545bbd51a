package main

import (
	"fmt"
	"os"
	"strings"

	"repro/benchmark/gen"
)

// sketchSpec is one sketch a workload creates: its name, the JSON body
// of the create call, and which rendering of the bodies it ingests.
type sketchSpec struct {
	name     string
	create   string
	weighted bool
}

var (
	cmSpec  = sketchSpec{name: "cm", create: fmt.Sprintf(`{"type":"countmin","width":%d,"depth":%d}`, gen.CMWidth, gen.CMDepth), weighted: true}
	hllSpec = sketchSpec{name: "hll", create: fmt.Sprintf(`{"type":"hll","p":%d}`, gen.HLLP)}
	bbSpec  = sketchSpec{name: "bb", create: fmt.Sprintf(`{"type":"blockedbloom","n":%d,"fpr":%g}`, gen.BloomN, gen.BloomFPR)}
	sfSpec  = sketchSpec{name: "sf", create: fmt.Sprintf(`{"type":"sfsketch","width":%d,"depth":%d}`, gen.SFWidth, gen.SFDepth), weighted: true}
)

// hotFlows is how many of the hottest flows point reads draw from.
const hotFlows = 1000

// readEvery makes every 8th request of an ingest workload a read.
const readEvery = 8

// workload is one traffic mix. classes[0] is the request the bulk_*
// metrics time and classes[1] the one the query_* metrics time; a
// read-only workload also reports every class as <class>_p50_ms.
type workload struct {
	name     string
	shards   int  // 0: one sketchd; n: n shards behind a coordinator
	durable  bool // -data-dir at the default policy, plus the recovery phase
	preload  bool // set-up ingests every body once into every sketch
	ingest   bool // bulk requests are /add batches
	sketches []sketchSpec
	classes  []string
	script   func(t *target) func(*client) op
}

var workloads = []*workload{
	{
		name: "ingest_mem", ingest: true,
		sketches: []sketchSpec{cmSpec, hllSpec, bbSpec},
		classes:  []string{"ingest", "query"},
		script:   func(t *target) func(*client) op { return t.ingestMix(t.pointRead) },
	},
	{
		name: "ingest_wal", ingest: true, durable: true,
		sketches: []sketchSpec{cmSpec, hllSpec, bbSpec},
		classes:  []string{"ingest", "query"},
		script:   func(t *target) func(*client) op { return t.ingestMix(t.pointRead) },
	},
	{
		name: "cluster_ingest", ingest: true, shards: 4,
		sketches: []sketchSpec{cmSpec, hllSpec, bbSpec},
		classes:  []string{"ingest", "query"},
		script: func(t *target) func(*client) op {
			return t.ingestMix(func(*client, int) op { return op{class: 1, url: t.queryURL[1]} })
		},
	},
	{
		name: "cluster_read", shards: 4, preload: true,
		sketches: []sketchSpec{cmSpec, hllSpec, sfSpec},
		classes:  []string{"gather_large", "gather_small", "snapshot_full", "snapshot_slim"},
		script:   func(t *target) func(*client) op { return t.readMix },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// target is a workload bound to a running system: the URL the clients
// talk to (the node, or the coordinator) and the request URLs.
type target struct {
	w        *workload
	in       *gen.Input
	base     string
	addURL   []string   // per sketch
	queryURL []string   // per sketch, no parameters
	hotURL   [][]string // per sketch, ?item= for each of the hottest flows
}

func sketchURL(base, name string) string { return base + "/v1/sketch/" + name }

func newTarget(w *workload, in *gen.Input, base string) *target {
	t := &target{w: w, in: in, base: base}
	for _, s := range w.sketches {
		u := sketchURL(base, s.name)
		t.addURL = append(t.addURL, u+"/add")
		t.queryURL = append(t.queryURL, u+"/query")
		hot := make([]string, hotFlows)
		for k := range hot {
			hot[k] = u + "/query?item=" + gen.Key(uint32(k))
		}
		t.hotURL = append(t.hotURL, hot)
	}
	return t
}

// body returns body ix in the form sketch sk ingests.
func (t *target) body(sk, ix int) []byte {
	if t.w.sketches[sk].weighted {
		return t.in.Weighted[ix]
	}
	return t.in.Plain[ix]
}

// add is a client's next /add: sketches in rotation, bodies in rotation,
// the clients starting evenly spaced over the bodies.
func (t *target) add(c *client) op {
	a := c.adds
	c.adds++
	sk := a % len(t.w.sketches)
	ix := (a + c.id*len(t.in.Plain)/clients) % len(t.in.Plain)
	return op{class: 0, url: t.addURL[sk], body: t.body(sk, ix), sketch: sk, bodyIx: ix}
}

// ingestMix is the script of the three ingest workloads: /add batches
// with every readEvery-th request a read.
func (t *target) ingestMix(read func(c *client, r int) op) func(*client) op {
	return func(c *client) op {
		i := c.n
		c.n++
		if i%readEvery != readEvery-1 {
			return t.add(c)
		}
		r := c.reads
		c.reads++
		return read(c, r)
	}
}

// pointRead cycles Count-Min point query, HLL estimate, Bloom contains.
func (t *target) pointRead(c *client, r int) op {
	flow := (r*7919 + c.id*31) % hotFlows
	switch sk := r % 3; sk {
	case 1:
		return op{class: 1, url: t.queryURL[sk]}
	default:
		return op{class: 1, url: t.hotURL[sk][flow]}
	}
}

// readMix is cluster_read's script: gathered CM point query, sf snapshot
// full, sf snapshot slim, with a gathered HLL estimate before each. The
// small read is every other request because it is cheap — 5 ms against
// 75 — so this triples the samples behind query_p50_ms and query_p90_ms
// (about 600 per 15 s) at a tenth more time per round. The second client
// starts half a round ahead so that the two never ask in step.
func (t *target) readMix(c *client) op {
	i := c.n
	c.n++
	sf := sketchURL(t.base, sfSpec.name) + "/snapshot?wire="
	switch step := (i + 3*c.id) % 6; step {
	case 1:
		return op{class: 0, url: t.hotURL[0][(i*7919)%hotFlows]} // gathered CM point query: 4 × 2 MB
	case 3:
		return op{class: 2, url: sf + "full"}
	case 5:
		return op{class: 3, url: sf + "slim"}
	default:
		return op{class: 1, url: t.queryURL[1]} // gathered HLL estimate: 4 × 16 KB
	}
}

// preloadScript ingests every body once into every sketch, the work
// dealt out over the clients.
func (t *target) preloadScript() (next func(*client) op, done func(*client) bool) {
	total := len(t.w.sketches) * len(t.in.Plain)
	mine := func(c *client) int { return c.n*clients + c.id }
	next = func(c *client) op {
		j := mine(c)
		c.n++
		sk, ix := j/len(t.in.Plain), j%len(t.in.Plain)
		return op{url: t.addURL[sk], body: t.body(sk, ix), sketch: sk, bodyIx: ix}
	}
	done = func(c *client) bool { return mine(c) >= total }
	return next, done
}

// system is a started fleet with its sketches created.
type system struct {
	fleet   fleet
	shards  []*node // the nodes that hold sketch state
	front   *node   // what the clients talk to: the node or the coordinator
	dataDir string  // of a durable node, else empty
}

// stop ends every process and removes what they wrote.
func (s *system) stop() {
	s.fleet.stop()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// startSystem spawns w's processes and creates its sketches. A durable
// node gets a fresh data directory under tmp, and extra as further flags.
func startSystem(w *workload, bin, tmp string, extra ...string) (s *system, err error) {
	s = &system{fleet: fleet{bin: bin}}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	hc := newHTTPClient()
	var args []string
	if w.durable {
		if s.dataDir, err = os.MkdirTemp(tmp, w.name+"-data-"); err != nil {
			return nil, err
		}
		args = append([]string{"-data-dir", s.dataDir}, extra...)
	}
	for i := 0; i < max(w.shards, 1); i++ {
		node, err := s.fleet.start(args, statusReady(hc, -1))
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, node)
	}
	s.front = s.shards[0]
	if w.shards > 0 {
		urls := make([]string, len(s.shards))
		for i, sh := range s.shards {
			urls[i] = sh.url
		}
		if s.front, err = s.fleet.start([]string{"-coordinator", "-shards", strings.Join(urls, ",")}, statusReady(hc, -1)); err != nil {
			return nil, err
		}
	}
	for _, sk := range w.sketches {
		if err := post(hc, sketchURL(s.front.url, sk.name), []byte(sk.create)); err != nil {
			return nil, fmt.Errorf("create %s: %w", sk.name, err)
		}
	}
	return s, nil
}
