// Package secondchance is a bounded map with second-chance (CLOCK)
// eviction, the one-bit approximation of LRU. It holds the gsp freq
// cache's entries, lbsd's per-user release history and the stream's
// per-user windows.
//
// Entries sit in a slot table, linked by int32 into a FIFO queue, and a
// map[K]int32 indexes them. A Get marks its entry. When a Put of a new
// key finds the map full, it pops entries off the front of the queue: a
// marked one loses its mark and goes to the back, and the first
// unmarked one is evicted, so the scan ends within two passes. The new
// key takes the victim's slot; with no Delete, no slot is ever free.
// When neither K nor V holds a pointer, neither does the slot table, so
// the runtime allocates it as no-scan memory and a GC cycle never walks
// it.
//
// An owner function, set by Init, makes eviction fair between the
// owners of the keys (the tenants of the per-user maps): a Put of a new
// key may only evict an entry whose owner holds at least as many
// entries as the new key's owner. That owner's own entries always
// qualify, and all entries do when it holds none, so the scan still
// ends within two passes, and when each key is its own owner the rule
// is plain second chance. A flood of new keys from one owner then
// evicts that owner's entries, not those of an owner holding fewer.
//
// A Map is not safe for concurrent use.
package secondchance

import "iter"

// Map is a bounded map from K to V. Call Init before use.
type Map[K comparable, V any] struct {
	index map[K]int32
	slots []slot[K, V]
	// head and tail are the queue's ends; head is -1 when it is empty.
	head, tail int32
	cap        int
	// owner, when set, names each key's owner, and owned counts the
	// entries each owner holds.
	owner func(K) string
	owned map[string]int
}

type slot[K comparable, V any] struct {
	key    K
	val    V
	next   int32 // the next slot on the queue; -1 ends it
	marked bool
}

// Init empties m and bounds it to capacity entries. A nil owner makes
// eviction plain second chance; see the package doc for the rule an
// owner sets. Init panics if capacity is below 1.
func (m *Map[K, V]) Init(capacity int, owner func(K) string) {
	if capacity < 1 {
		panic("secondchance: capacity below 1")
	}
	*m = Map[K, V]{
		index: make(map[K]int32, min(capacity, 1024)),
		head:  -1, tail: -1, cap: capacity, owner: owner,
	}
	if owner != nil {
		m.owned = make(map[string]int)
	}
}

// Len returns the number of entries, at most the capacity.
func (m *Map[K, V]) Len() int { return len(m.index) }

// Get returns the value stored under k and marks k, so the next
// eviction scan to reach it passes it over.
func (m *Map[K, V]) Get(k K) (V, bool) {
	i, ok := m.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	e := &m.slots[i]
	e.marked = true
	return e.val, true
}

// Put stores v under k, and marks k when mark is set; it never clears a
// mark. A new key joins the back of the queue, unmarked unless mark is
// set. When a new key finds the map full, Put first evicts one entry and
// returns its value with evicted true.
func (m *Map[K, V]) Put(k K, v V, mark bool) (victim V, evicted bool) {
	if i, ok := m.index[k]; ok {
		e := &m.slots[i]
		e.val = v
		e.marked = e.marked || mark
		return victim, false
	}
	i := int32(len(m.slots))
	if len(m.slots) < m.cap {
		m.slots = append(m.slots, slot[K, V]{})
	} else {
		i = m.evict(k)
		victim, evicted = m.slots[i].val, true
	}
	m.slots[i] = slot[K, V]{key: k, val: v, marked: mark}
	m.push(i)
	m.index[k] = i
	if m.owner != nil {
		m.owned[m.owner(k)]++
	}
	return victim, evicted
}

// evict removes the entry the queue gives up first for a new key k from
// the queue and the index, and returns its slot. An entry it passes over
// goes to the back of the queue: a marked one, which loses its mark, and
// one whose owner holds fewer entries than k's owner.
func (m *Map[K, V]) evict(k K) int32 {
	n := 0
	if m.owner != nil {
		n = m.owned[m.owner(k)]
	}
	for {
		i := m.head
		e := &m.slots[i]
		m.head = e.next
		if e.marked || (n > 0 && m.owned[m.owner(e.key)] < n) {
			e.marked = false
			m.push(i)
			continue
		}
		delete(m.index, e.key)
		if m.owner != nil {
			o := m.owner(e.key)
			if m.owned[o]--; m.owned[o] == 0 {
				delete(m.owned, o)
			}
		}
		return i
	}
}

// push appends slot i to the back of the queue.
func (m *Map[K, V]) push(i int32) {
	m.slots[i].next = -1
	if m.head < 0 {
		m.head = i
	} else {
		m.slots[m.tail].next = i
	}
	m.tail = i
}

// All yields every entry from the front of the queue to the back. The
// loop body may Put a new value under the key it was given, but must
// not add a key.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for i := m.head; i >= 0; i = m.slots[i].next {
			if !yield(m.slots[i].key, m.slots[i].val) {
				return
			}
		}
	}
}
