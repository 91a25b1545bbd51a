package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"

	"repro/benchmark/gen"
)

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// checker runs the correctness checks against exact answers derived
// from the harness's own tally of acknowledged bodies.
type checker struct {
	hc     *http.Client
	in     *gen.Input
	checks []check
}

func (k *checker) record(name string, err error, okDetail string) {
	if err != nil {
		k.checks = append(k.checks, check{Name: name, Detail: err.Error()})
		return
	}
	k.checks = append(k.checks, check{Name: name, OK: true, Detail: okDetail})
}

// tally sums the clients' acknowledged-body counts for one sketch.
func tally(cs []*client, sketch int) []int {
	acks := make([]int, len(cs[0].acks[sketch]))
	for _, c := range cs {
		for b, n := range c.acks[sketch] {
			acks[b] += n
		}
	}
	return acks
}

// countMin checks a Count-Min sketch at url: its total equals the
// acknowledged weight exactly, and for the 100 hottest flows the
// estimate is at least the truth and at most truth + (e/width)·N.
func (k *checker) countMin(name, url string, acks []int) {
	const hot = 100
	truth := make([]uint64, hot)
	var total uint64
	for b, n := range acks {
		for i, key := range k.in.Keys[b] {
			w := uint64(n) * uint64(k.in.Weights[b][i])
			total += w
			if key < hot {
				truth[key] += w
			}
		}
	}
	slack := uint64(math.Ceil(math.E / gen.CMWidth * float64(total)))
	var worst uint64
	err := func() error {
		for f := 0; f < hot; f++ {
			var doc struct {
				Estimate uint64 `json:"estimate"`
				N        uint64 `json:"n"`
			}
			if err := getJSON(k.hc, url+"/query?item="+gen.Key(uint32(f)), &doc); err != nil {
				return err
			}
			if doc.N != total {
				return fmt.Errorf("n = %d, acknowledged weight = %d", doc.N, total)
			}
			if doc.Estimate < truth[f] || doc.Estimate > truth[f]+slack {
				return fmt.Errorf("%s: estimate %d outside [%d, %d]", gen.Key(uint32(f)), doc.Estimate, truth[f], truth[f]+slack)
			}
			if over := doc.Estimate - truth[f]; over > worst {
				worst = over
			}
		}
		return nil
	}()
	k.record(name, err, fmt.Sprintf("n = %d exact; %d hottest flows over by at most %d (allowed %d)", total, hot, worst, slack))
}

// hll checks an HLL's estimate against the exact number of distinct
// keys in the acknowledged bodies, within 3 standard errors.
func (k *checker) hll(name, url string, acks []int) {
	distinct := map[uint32]struct{}{}
	for b, n := range acks {
		if n > 0 {
			for _, key := range k.in.Keys[b] {
				distinct[key] = struct{}{}
			}
		}
	}
	exact := float64(len(distinct))
	tol := 3 * 1.04 / math.Sqrt(float64(uint(1)<<gen.HLLP))
	var doc struct {
		Estimate float64 `json:"estimate"`
	}
	err := getJSON(k.hc, url+"/query", &doc)
	rel := math.Abs(doc.Estimate-exact) / exact
	if err == nil && rel > tol {
		err = fmt.Errorf("estimate %.0f vs %d distinct: off by %.2f %%, allowed %.2f %%", doc.Estimate, len(distinct), 100*rel, 100*tol)
	}
	k.record(name, err, fmt.Sprintf("estimate %.0f vs %d distinct: off by %.2f %% (allowed %.2f %%)", doc.Estimate, len(distinct), 100*rel, 100*tol))
}

// bloom checks that 1000 keys, drawn in turn from the acknowledged
// bodies, are all reported present: a Bloom filter has no false negatives.
func (k *checker) bloom(name, url string, acks []int) {
	const keys = 1000
	var acked []int
	for b, n := range acks {
		if n > 0 {
			acked = append(acked, b)
		}
	}
	err := func() error {
		if len(acked) == 0 {
			return fmt.Errorf("no body was acknowledged, so there is no key to probe")
		}
		for i := 0; i < keys; i++ {
			b := acked[i%len(acked)]
			key := gen.Key(k.in.Keys[b][(i*37)%gen.Lines])
			var doc struct {
				Contains bool `json:"contains"`
			}
			if err := getJSON(k.hc, url+"/query?item="+key, &doc); err != nil {
				return err
			}
			if !doc.Contains {
				return fmt.Errorf("false negative on %s", key)
			}
		}
		return nil
	}()
	k.record(name, err, fmt.Sprintf("no false negative on %d keys from %d acknowledged bodies", keys, len(acked)))
}

// sketches runs the accuracy checks of every sketch of w against the
// node at base, where the sketch for spec s is called prefix+s.name.
func (k *checker) sketches(w *workload, base, prefix string, cs []*client) {
	for i, s := range w.sketches {
		url, acks := sketchURL(base, prefix+s.name), tally(cs, i)
		switch s.name {
		case cmSpec.name:
			k.countMin("countmin_bounds", url, acks)
		case hllSpec.name:
			k.hll("hll_error", url, acks)
		case bbSpec.name:
			k.bloom("bloom_no_false_negative", url, acks)
		}
	}
}

// mergedEqualsCoordinator checks, for every sketch of w, that the
// coordinator's /snapshot equals byte for byte the merge of the shards'
// snapshots. The merge is done by sketchd itself — the envelopes are
// POSTed to /merge on a fresh sketch "verify_<name>" on the first shard —
// so the harness needs no knowledge of the wire format, and that sketch
// then serves the accuracy checks without 2 MB gathers per question.
func (k *checker) mergedEqualsCoordinator(w *workload, s *system) {
	const prefix = "verify_"
	for _, sk := range w.sketches {
		err := func() error {
			fromCoord, err := getBytes(k.hc, sketchURL(s.front.url, sk.name)+"/snapshot")
			if err != nil {
				return err
			}
			verify := sketchURL(s.shards[0].url, prefix+sk.name)
			if err := post(k.hc, verify, []byte(sk.create)); err != nil {
				return err
			}
			for _, sh := range s.shards {
				env, err := getBytes(k.hc, sketchURL(sh.url, sk.name)+"/snapshot")
				if err != nil {
					return err
				}
				if err := post(k.hc, verify+"/merge", env); err != nil {
					return err
				}
			}
			merged, err := getBytes(k.hc, verify+"/snapshot")
			if err != nil {
				return err
			}
			if !bytes.Equal(fromCoord, merged) {
				return fmt.Errorf("coordinator snapshot (%d bytes) differs from the merge of %d shard snapshots (%d bytes)", len(fromCoord), len(s.shards), len(merged))
			}
			return nil
		}()
		k.record("cluster_snapshot_"+sk.name, err, "coordinator /snapshot = merge of the shard snapshots, byte for byte")
	}
}

func allOK(checks []check) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}
