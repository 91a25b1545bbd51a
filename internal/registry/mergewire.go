package registry

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mergex"
)

// ErrNotMergeable is returned by MergeEnvelopes for a family without a
// Merge binding.
var ErrNotMergeable = errors.New("registry: sketch family does not merge")

// wireMerge builds a MergeWire from what a family's package writes — the
// function that validates one envelope as its decoder does and locates
// its cells — and the word operation that is the family's merge.
func wireMerge(family string, locate func(env []byte) (core.WireCells, bool, error), op func(dst, src []byte)) func(dst, src []byte) (bool, error) {
	return func(dst, src []byte) (bool, error) {
		cells, ok, err := locate(dst)
		if err != nil || !ok {
			return false, err
		}
		if _, ok, err = locate(src); err != nil || !ok {
			return false, err
		}
		if !cells.SameShape(dst, src) {
			return false, fmt.Errorf("%w: %s envelopes of different shape, seed or mode", core.ErrIncompatible, family)
		}
		cells.Fold(dst, src, op)
		return true, nil
	}
}

// Merged is what MergeEnvelopes makes of N envelopes of one family: the
// merged envelope, when they folded as bytes, or the merged instance.
type Merged struct {
	Desc *Descriptor
	env  []byte // envs[0], the others folded into it
	inst any
}

// Wire reports whether the envelopes merged in the wire domain: no
// instance was decoded.
func (m *Merged) Wire() bool { return m.env != nil }

// Instance returns the merged state as the family's plain instance,
// decoding the merged envelope if the merge was one of bytes.
func (m *Merged) Instance() (any, error) {
	if m.env != nil {
		return m.Desc.Decode(m.env)
	}
	return m.inst, nil
}

// Envelope returns the merged state's full envelope: the bytes the
// envelopes folded into, which alias the first of them (buf is not
// touched), or the merged instance marshalled onto buf.
func (m *Merged) Envelope(buf []byte) ([]byte, error) {
	if m.env != nil {
		return m.env, nil
	}
	out, _, err := AppendMarshal(buf, m.inst, false)
	return out, err
}

// MergeEnvelopes merges N envelopes of one mergeable family into one:
// the single home of "envelopes in, their merge out" for a gathered
// read, a merge bundle and the command line. A family with MergeWire has
// envs[1:] folded into envs[0] in place, which the caller must own (a
// caller that still needs envs[0] passes a copy of it) — on an error
// it is left partly folded, to be discarded. Any other family, a single
// envelope, and whatever MergeWire declines take the path every merge
// took before: decode each, mergex.Tree. Envelopes of different families
// are core.ErrIncompatible; an envelope a decoder would refuse, or a
// Merge, is refused with the same error class here.
func MergeEnvelopes(envs [][]byte) (Merged, error) {
	if len(envs) == 0 {
		return Merged{}, mergex.ErrNoItems
	}
	var d *Descriptor
	for i, env := range envs {
		id, err := descriptorOf(env)
		if err != nil {
			return Merged{}, fmt.Errorf("envelope %d: %w", i, err)
		}
		if d == nil {
			if d = id; d.Bind.Merge == nil {
				return Merged{}, fmt.Errorf("%w: %s", ErrNotMergeable, d.Name)
			}
		} else if id != d {
			// Two sound envelopes of different families do not merge;
			// bytes that only name a family are corrupt, as decoding them
			// would have said first.
			for _, j := range []int{0, i} {
				if _, _, err := Decode(envs[j]); err != nil {
					return Merged{}, fmt.Errorf("envelope %d: %w", j, err)
				}
			}
			return Merged{}, fmt.Errorf("%w: envelope %d is a %s, envelope 0 a %s", core.ErrIncompatible, i, id.Name, d.Name)
		}
	}
	folded := 1 // envs[:folded] are merged in envs[0]
	if d.MergeWire != nil {
		for ; folded < len(envs); folded++ {
			ok, err := d.MergeWire(envs[0], envs[folded])
			if err != nil {
				return Merged{}, fmt.Errorf("envelope %d into envelope 0: %w", folded, err)
			}
			if !ok {
				break
			}
		}
		if folded == len(envs) && folded > 1 {
			return Merged{Desc: d, env: envs[0]}, nil
		}
	}
	insts := make([]any, 0, 1+len(envs)-folded)
	for i, env := range envs {
		if i > 0 && i < folded {
			continue
		}
		inst, err := d.Decode(env)
		if err != nil {
			return Merged{}, fmt.Errorf("envelope %d: %w", i, err)
		}
		insts = append(insts, inst)
	}
	merged, err := mergex.Tree(insts, d.Bind.Merge)
	if err != nil {
		return Merged{}, err
	}
	return Merged{Desc: d, inst: merged}, nil
}
