package stream

import (
	"encoding/binary"

	"poiagg/internal/poi"
)

// The store keeps each counted event's frequency vector packed: the
// number of nonzero types, then for each of them, in type order, the
// gap since the previous nonzero type and the count, all as unsigned
// varints. On beijing at 1 km a vector has about 9 nonzero types of
// 177, so it packs into about 20 bytes where the dense form takes
// 1,416. An all-zero vector packs to one byte, so a counted event's
// vector is never empty.

// packVec appends the packed form of v to dst.
func packVec(dst []byte, v poi.FreqVector) []byte {
	nnz := 0
	for _, c := range v {
		if c != 0 {
			nnz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nnz))
	prev := -1
	for t, c := range v {
		if c == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(t-prev-1))
		dst = binary.AppendUvarint(dst, uint64(c))
		prev = t
	}
	return dst
}

// addPacked adds sign times the packed vector p to sum.
func addPacked(sum []int32, p string, sign int32) {
	nnz, k := uvarint(p, 0)
	t := -1
	for ; nnz > 0; nnz-- {
		var gap, c uint64
		gap, k = uvarint(p, k)
		c, k = uvarint(p, k)
		t += int(gap) + 1
		sum[t] += sign * int32(c)
	}
}

// uvarint decodes the varint at p[k:] and returns it with the offset
// after it. p is a vector packVec wrote, so it is well formed.
func uvarint(p string, k int) (uint64, int) {
	var x uint64
	for s := uint(0); ; s += 7 {
		b := p[k]
		k++
		if b < 0x80 {
			return x | uint64(b)<<s, k
		}
		x |= uint64(b&0x7f) << s
	}
}
