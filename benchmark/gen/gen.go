// Package gen makes the benchmark's input from a seed: the same seed
// gives byte-identical request bodies, so two commits are measured on
// the same traffic and the harness can tally the exact answers.
package gen

import (
	"math/rand"
	"strconv"
)

const (
	// Bodies is the number of distinct request bodies; clients rotate
	// over them. 256 × 1024 lines are ≈ 2 MB plain and ≈ 2.6 MB weighted.
	Bodies = 256
	// Lines is the number of items in one /add batch.
	Lines = 1024
	// Flows is the key universe; keys are "flow<k>", k in [0, Flows).
	Flows = 1 << 22
	// ZipfS is the skew of the key distribution. At 1.1 over 2^22
	// flows the hottest key takes 12 % of the lines, the 1000 hottest
	// two thirds, and a fifth of the lines hit one of the ~60 000
	// distinct keys only once, so hot counters and cold cache lines are
	// both exercised.
	ZipfS = 1.1
	// MaxWeight bounds the per-line weight of the weighted form.
	MaxWeight = 9
)

// The shapes of the sketches the workloads create. The end-to-end runs
// and the layer trace both build theirs from these, so that a layer is
// traced on the table size it serves.
const (
	CMWidth, CMDepth = 65536, 4 // × 8-byte counters: a 2 MB table, past this host's L2
	HLLP             = 14
	BloomN, BloomFPR = 4_000_000, 0.01
	SFWidth, SFDepth = 4096, 4 // the slim stage; the fat stage is 8× wider
)

// Input is one seed's traffic. Keys and Weights are the ground truth;
// Plain and Weighted are the same lines rendered as request bodies:
// "flow<k>\n" for sketches that take bare items (hll, blockedbloom)
// and "flow<k>\t<w>\n" for the weighted families (countmin, sfsketch).
type Input struct {
	Keys     [][]uint32
	Weights  [][]uint8
	Plain    [][]byte
	Weighted [][]byte
}

// Key renders flow k the way the bodies spell it.
func Key(k uint32) string { return "flow" + strconv.FormatUint(uint64(k), 10) }

// New generates bodies × Lines lines from seed.
func New(seed int64, bodies int) *Input {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, ZipfS, 1, Flows-1)
	in := &Input{
		Keys:     make([][]uint32, bodies),
		Weights:  make([][]uint8, bodies),
		Plain:    make([][]byte, bodies),
		Weighted: make([][]byte, bodies),
	}
	for b := 0; b < bodies; b++ {
		keys := make([]uint32, Lines)
		weights := make([]uint8, Lines)
		plain := make([]byte, 0, Lines*12)
		weighted := make([]byte, 0, Lines*14)
		for i := range keys {
			keys[i] = uint32(z.Uint64())
			weights[i] = uint8(1 + r.Intn(MaxWeight))
			plain = append(plain, "flow"...)
			plain = strconv.AppendUint(plain, uint64(keys[i]), 10)
			plain = append(plain, '\n')
			weighted = append(weighted, "flow"...)
			weighted = strconv.AppendUint(weighted, uint64(keys[i]), 10)
			weighted = append(weighted, '\t')
			weighted = strconv.AppendUint(weighted, uint64(weights[i]), 10)
			weighted = append(weighted, '\n')
		}
		in.Keys[b], in.Weights[b], in.Plain[b], in.Weighted[b] = keys, weights, plain, weighted
	}
	return in
}
