package workload

import "hash/maphash"

// invRing is a cell's tail of the tier's invalidation stream: the last
// syncRingMax ticks in a circular buffer addressed by absolute tick
// position (the n-th tick ever pushed sits at position n, in slot
// n % syncRingMax), plus an exact per-key index of window maxima.
//
// A device catching up needs, for each key it caches, the highest
// version among the ticks at or after some position. The latest tick of
// a key does not answer that: a leader broadcasts ticks past its commit
// index, a failover can truncate them, and the new leader then announces
// lower versions for the same keys. So each key keeps a monotone deque of
// its ticks, linked through the ring slots: positions rise from front to
// back and versions strictly fall, because a push first pops every back
// entry whose version is not above its own. The first deque entry at or
// after a position carries the key's highest version from there on. A
// tick leaving the ring leaves its key's deque (as the front, if it is
// still there), and a key whose deque empties leaves the index, so the
// index never holds more than syncRingMax keys.
//
// The index is an open-addressing table with linear probing, twice the
// ring's size. Entries hold their key and hash and slots hold their key's
// hash, so a push or an eviction touches about one table line and one
// slot line, and never rehashes a key or resizes a map. Deque links are
// slot indices: the ring's positions occupy distinct slots, and a slot's
// age (how many ticks were pushed after it) orders them.
type invRing struct {
	slots [syncRingMax]invSlot
	// total counts the ticks ever pushed; the ring holds positions
	// [total-length(), total).
	total uint64
	keys  int // keys in the index
	table [invTableSize]invKey
	seed  maphash.Seed
}

// invTableSize must be a power of two: remove's cyclic distances wrap
// through uint32.
const invTableSize = 2 * syncRingMax

// invSlot is one tick plus its links in its key's deque. prev and next
// are meaningful only while the tick is in the deque.
type invSlot struct {
	key        string
	ver        uint64
	hash       uint32
	prev, next uint16
}

// invKey is a key's index entry: its deque, by the slots of its ends. A
// zero hash marks a free entry (every key's hash has its top bit set).
type invKey struct {
	key         string
	hash        uint32
	front, back uint16
}

// length is the number of ticks the ring holds.
func (r *invRing) length() uint64 { return min(r.total, syncRingMax) }

// age is how many ticks were pushed after the one in slot i, which must
// be in the ring.
func (r *invRing) age(i uint16) uint64 { return (r.total - 1 - uint64(i)) % syncRingMax }

func (r *invRing) hash(key string) uint32 {
	if r.seed == (maphash.Seed{}) {
		r.seed = maphash.MakeSeed()
	}
	return uint32(maphash.String(r.seed, key)) | 1<<31
}

// find returns the index of key's table entry, or of the free entry
// where it would go.
func (r *invRing) find(key string, h uint32) (i uint32, ok bool) {
	for i = h % invTableSize; ; i = (i + 1) % invTableSize {
		if e := &r.table[i]; e.hash == 0 || e.hash == h && e.key == key {
			return i, e.hash != 0
		}
	}
}

// remove frees table entry i, shifting later entries of its probe run
// back so that every lookup still reaches its entry.
func (r *invRing) remove(i uint32) {
	r.keys--
	for j := (i + 1) % invTableSize; r.table[j].hash != 0; j = (j + 1) % invTableSize {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if home := r.table[j].hash % invTableSize; (j-home)%invTableSize >= (j-i)%invTableSize {
			r.table[i] = r.table[j]
			i = j
		}
	}
	r.table[i] = invKey{}
}

// push appends one tick, evicting the oldest when the ring is full.
func (r *invRing) push(key string, ver uint64) {
	h := r.hash(key)
	i := uint16(r.total % syncRingMax)
	if r.total >= syncRingMax {
		r.evict(i)
	}
	s := &r.slots[i]
	s.key, s.ver, s.hash = key, ver, h
	r.total++
	t, ok := r.find(key, h)
	e := &r.table[t]
	if !ok {
		*e = invKey{key: key, hash: h, front: i, back: i}
		r.keys++
		return
	}
	for r.slots[e.back].ver <= ver {
		if e.back == e.front {
			e.front, e.back = i, i
			return
		}
		e.back = r.slots[e.back].prev
	}
	r.slots[e.back].next = i
	s.prev = e.back
	e.back = i
}

// evict takes the tick in slot i, the oldest in the ring, out of its
// key's deque. A tick popped from the back earlier is in no deque.
func (r *invRing) evict(i uint16) {
	s := &r.slots[i]
	t, ok := r.find(s.key, s.hash)
	switch e := &r.table[t]; {
	case !ok || e.front != i:
	case e.back != i:
		e.front = s.next
	default:
		r.remove(t)
	}
}

// newest returns the highest version among key's last w ticks (w at most
// the ring's length); ok is false when none of them names key.
func (r *invRing) newest(key string, w uint64) (ver uint64, ok bool) {
	t, ok := r.find(key, r.hash(key))
	if !ok {
		return 0, false
	}
	e := &r.table[t]
	for i := e.front; ; i = r.slots[i].next {
		if r.age(i) < w {
			return r.slots[i].ver, true
		}
		if i == e.back {
			return 0, false
		}
	}
}
