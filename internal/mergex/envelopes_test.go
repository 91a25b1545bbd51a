package mergex_test

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/hashx"
	"repro/internal/registry"
)

// TestMergeEnvelopesSameAtEveryGOMAXPROCS gathers four shard envelopes
// of each family whose merge is not exactly associative (compactors and
// digests) through registry.MergeEnvelopes, which folds them with Tree,
// at GOMAXPROCS 1 and 2. A gathered answer must not depend on the core
// count of the machine that merged it, so the merged envelopes must be
// byte-identical.
func TestMergeEnvelopesSameAtEveryGOMAXPROCS(t *testing.T) {
	const shards, perShard = 4, 20_000
	for _, name := range []string{"kll", "tdigest", "req"} {
		d, ok := registry.Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		envs := make([][]byte, shards)
		for s := range envs {
			p, err := d.Validate(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			var body []byte
			for i := 0; i < perShard; i++ {
				v := hashx.HashUint64(uint64(s*perShard+i), 38) % 1_000_003
				body = append(strconv.AppendUint(body, v, 10), '\n')
			}
			if _, err := d.Bind.Ingest(inst, body); err != nil {
				t.Fatal(err)
			}
			if envs[s], err = registry.Marshal(inst); err != nil {
				t.Fatal(err)
			}
		}
		merged := func(procs int) []byte {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			in := make([][]byte, len(envs))
			for i, env := range envs {
				in[i] = slices.Clone(env)
			}
			m, err := registry.MergeEnvelopes(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			env, err := m.Envelope(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return env
		}
		if one, two := merged(1), merged(2); !bytes.Equal(one, two) {
			t.Errorf("%s: the merged envelope at GOMAXPROCS=1 differs from the one at GOMAXPROCS=2", name)
		}
	}
}
