package cluster

import (
	"bytes"
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/registry"
	"repro/internal/server/client"
)

// slotBudget bounds the bytes the coordinator keeps in gather slots,
// over all of them: past it the least recently read slot goes. A slot
// lost costs its next read one unconditional gather, never a wrong
// answer, so the bound is a constant and not a setting.
const slotBudget = 64 << 20

// slotKey names one whole-state read: a sketch of a tenant, in one wire
// form. A full and a slim read of one sketch are two slots.
type slotKey struct {
	tenant, name string
	slim         bool
}

// slot holds every shard's last envelope of one whole-state read and
// the entity tag the shard named it by, and, for a family that merges on
// the wire, the fold of exactly those envelopes: held is answered while
// every shard answers 304 to the tag the slot holds for it, a /snapshot
// with the folded bytes and a /query with the reply stored with them
// (foldBuf.answer). A read that finds any shard changed or failed, a
// partial read and a refused merge clear the fold, its stored reply with
// it, and a dropped slot answers nothing from it. A read holds mu while
// it asks every shard conditionally and folds what it holds, and not
// while it writes its reply.
type slot struct {
	mu     sync.Mutex
	shards []client.Cached // by shard index
	held   registry.Merged // the fold of shards' envelopes as they stand, when fold is not nil
	fold   *foldBuf        // the buffer held folded into; one of its references is the slot's

	key     slotKey
	elem    *list.Element // in the cache's LRU order; nil once dropped
	bytes   int           // what the cache counts for the slot
	dropped atomic.Bool   // out of the cache: no read answers from its fold
}

// size is what the slot's buffers hold on to, the held fold's included.
// Call with s.mu held.
func (s *slot) size() int {
	n := 0
	for _, sh := range s.shards {
		n += cap(sh.Env) + cap(sh.Tag)
	}
	if s.fold != nil {
		n += cap(s.fold.b)
	}
	return n
}

// foldBuf is a pooled buffer that a whole-state read folds the shard
// envelopes into, counted by who uses it: each read writing a reply from
// it, and the slot that holds it. The last to let go puts it back in the
// pool, so no read folds into a buffer a reply is still written from.
// With the fold it keeps the one reply a whole-state /query of it has,
// rendered by the first read that asks and then only written out; it
// goes with the fold's last reference, and its buffer, like b, keeps its
// capacity from one fold to the next.
type foldBuf struct {
	b    []byte
	refs atomic.Int32

	mu       sync.Mutex   // held while the reply is looked up or rendered
	answered bool         // reply is the fold's whole-state /query reply
	reply    bytes.Buffer // the reply, as handleQuery writes it
}

// answer returns the fold's whole-state /query reply, rendered into its
// buffer by render the first time any read asks for it. Call it holding
// a reference: the bytes stay as they are until the last one goes. A
// render that fails stores nothing, and the next read renders again.
func (fb *foldBuf) answer(render func(*bytes.Buffer) error) ([]byte, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if !fb.answered {
		fb.reply.Reset()
		if err := render(&fb.reply); err != nil {
			return nil, err
		}
		fb.answered = true
	}
	return fb.reply.Bytes(), nil
}

// unref lets go of one reference to fb, and puts it in pool with the
// last one, its stored reply forgotten.
func (fb *foldBuf) unref(pool *sync.Pool) {
	if fb.refs.Add(-1) == 0 {
		fb.answered = false
		pool.Put(fb)
	}
}

// slotCache is the coordinator's gather slots, least recently read
// last, within slotBudget. It is soft state: a dropped slot is read
// again from scratch, and every read asks every shard whether what a
// slot holds is still current.
type slotCache struct {
	mu    sync.Mutex
	m     map[slotKey]*slot
	lru   list.List // of *slot, most recently read first
	bytes int
}

// get returns the key's slot, made empty for shards shards when there
// is none, as the most recently read.
func (c *slotCache) get(key slotKey, shards int) *slot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.m[key]
	if s == nil {
		if c.m == nil {
			c.m = make(map[slotKey]*slot)
		}
		s = &slot{key: key, shards: make([]client.Cached, shards)}
		s.elem = c.lru.PushFront(s)
		c.m[key] = s
		return s
	}
	c.lru.MoveToFront(s.elem)
	return s
}

// resize counts a slot at its size now, size() taken under its lock,
// and drops the least recently read slots until the cache is within its
// budget again. A slot over the budget by itself, or of a negative size,
// is dropped alone.
func (c *slotCache) resize(s *slot, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.elem == nil {
		return
	}
	if size < 0 || size > slotBudget {
		c.remove(s)
		return
	}
	c.bytes += size - s.bytes
	s.bytes = size
	for c.bytes > slotBudget {
		c.remove(c.lru.Back().Value.(*slot))
	}
}

// drop forgets the slots of a sketch in every wire form: it was deleted,
// or a shard no longer has it.
func (c *slotCache) drop(tenant, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slim := range []bool{false, true} {
		if s := c.m[slotKey{tenant, name, slim}]; s != nil {
			c.remove(s)
		}
	}
}

// remove takes s out of the cache; a read holding it finishes on it
// and its bytes go with the last reference. Call with c.mu held.
func (c *slotCache) remove(s *slot) {
	c.lru.Remove(s.elem)
	delete(c.m, s.key)
	c.bytes -= s.bytes
	s.elem = nil
	s.dropped.Store(true)
}
