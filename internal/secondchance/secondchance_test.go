package secondchance

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// refMap is the reference model: a slice queue of keys, a mark per key,
// and owner counts recounted from the live keys at every eviction step,
// so it shares neither Map's slot links nor its bookkeeping.
type refMap struct {
	cap   int
	owner func(int) string // nil: plain second chance
	vals  map[int]int
	marks map[int]bool
	q     []int
}

func (r *refMap) get(k int) (int, bool) {
	v, ok := r.vals[k]
	if ok {
		r.marks[k] = true
	}
	return v, ok
}

func (r *refMap) put(k, v int, mark bool) (victim int, evicted bool) {
	if _, ok := r.vals[k]; ok {
		r.vals[k] = v
		r.marks[k] = r.marks[k] || mark
		return 0, false
	}
	for len(r.vals) >= r.cap {
		old := r.q[0]
		r.q = r.q[1:]
		if r.marks[old] || (r.owner != nil && r.held(r.owner(old)) < r.held(r.owner(k))) {
			r.marks[old] = false
			r.q = append(r.q, old)
			continue
		}
		victim, evicted = r.vals[old], true
		delete(r.vals, old)
		delete(r.marks, old)
	}
	r.vals[k], r.marks[k] = v, mark
	r.q = append(r.q, k)
	return victim, evicted
}

// held counts the live keys owner o holds.
func (r *refMap) held(o string) int {
	n := 0
	for k := range r.vals {
		if r.owner(k) == o {
			n++
		}
	}
	return n
}

// FuzzMapMatchesReference runs a Get/Put sequence decoded from ops
// against Map and refMap: one op per two bytes, the first choosing Get,
// an unmarked Put or a marked Put, the second the key among 24. Every
// Put stores its op number, so a victim's value names it. Both must
// return the same values and victims in the same order, and hold the
// same entries in the same queue order, at most capacity of them, with
// Map's per-owner counts equal to the reference's. With owners, keys
// 0-15 belong to one owner and each of the rest to an owner of its own,
// so both a flooding owner and owners holding one key are exercised.
func FuzzMapMatchesReference(f *testing.F) {
	src := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 16; i++ {
		ops := make([]byte, 2*(20+src.IntN(200)))
		for j := range ops {
			ops[j] = byte(src.Uint32())
		}
		f.Add(uint8(i), i%2 == 0, ops)
	}
	// The flood: a marked Put and a Get of one key of a small owner,
	// then marked Puts of 20 keys of the large owner, at capacity 8.
	flood := []byte{2, 20, 0, 20}
	for k := 0; k < 20; k++ {
		flood = append(flood, 2, byte(k%16))
	}
	f.Add(uint8(7), true, flood)

	f.Fuzz(func(t *testing.T, capByte uint8, withOwner bool, ops []byte) {
		capacity := 1 + int(capByte%12)
		var owner func(int) string
		if withOwner {
			owner = func(k int) string {
				if k < 16 {
					return "flood"
				}
				return fmt.Sprint("solo-", k)
			}
		}
		if len(ops) > 1024 {
			ops = ops[:1024] // long inputs only slow the fuzzer down
		}
		var m Map[int, int]
		m.Init(capacity, owner)
		ref := &refMap{cap: capacity, owner: owner, vals: map[int]int{}, marks: map[int]bool{}}
		for op := 0; op+1 < len(ops); op += 2 {
			k := int(ops[op+1] % 24)
			switch ops[op] % 3 {
			case 0:
				v, ok := m.Get(k)
				if wv, wok := ref.get(k); v != wv || ok != wok {
					t.Fatalf("op %d: Get(%d) = %d, %v; reference %d, %v", op, k, v, ok, wv, wok)
				}
			default:
				mark := ops[op]%3 == 2
				v, ev := m.Put(k, op, mark)
				if wv, wev := ref.put(k, op, mark); v != wv || ev != wev {
					t.Fatalf("op %d: Put(%d) evicted %d, %v; reference %d, %v", op, k, v, ev, wv, wev)
				}
			}
			if m.Len() > capacity || m.Len() != len(ref.vals) {
				t.Fatalf("op %d: Len %d, reference %d, capacity %d", op, m.Len(), len(ref.vals), capacity)
			}
			var keys []int
			for k, v := range m.All() {
				if v != ref.vals[k] {
					t.Fatalf("op %d: key %d holds %d, reference %d", op, k, v, ref.vals[k])
				}
				keys = append(keys, k)
			}
			if !slices.Equal(keys, ref.q) {
				t.Fatalf("op %d: queue %v, reference %v", op, keys, ref.q)
			}
			if owner != nil {
				want := map[string]int{}
				for k := range ref.vals {
					want[owner(k)]++
				}
				if !maps.Equal(m.owned, want) {
					t.Fatalf("op %d: owners hold %v, reference %v", op, m.owned, want)
				}
			}
		}
	})
}

// TestSlotTableIsCompact pins the slot size a pointer-free 24-byte key
// and 16-byte value get, the freq cache's: 48 bytes, no padding beyond
// the link and the mark.
func TestSlotTableIsCompact(t *testing.T) {
	type key struct{ x, y, r float64 }
	type val struct{ off, n int }
	if got := unsafe.Sizeof(slot[key, val]{}); got != 48 {
		t.Errorf("slot size %d bytes, want 48", got)
	}
}
