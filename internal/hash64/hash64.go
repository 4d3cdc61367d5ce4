// Package hash64 holds the two non-cryptographic 64-bit hashes the
// repository shares: the splitmix64 finalizer and FNV-1a. Their outputs
// are persisted (city fingerprints and record checksums in freq-store
// snapshots) and decide placement (consistent-hash ring positions,
// ledger and cache shards), so they must never change; golden_test.go
// pins them.
package hash64

// FNVOffset is the FNV-1a 64-bit offset basis, the state before any
// byte is folded in.
const FNVOffset = 14695981039346656037

const fnvPrime = 1099511628211

// Mix is the splitmix64 finalizer: a bijection that spreads every input
// bit over the whole word.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV folds the bytes of s into the FNV-1a state h.
func FNV[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// FNVUint64 folds v's eight bytes, least significant first, into the
// FNV-1a state h.
func FNVUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// String is FNV-1a over s finished with Mix: FNV alone clusters on short
// suffix changes ("peer#1" vs "peer#2"), and shard and ring balance need
// the values spread uniformly.
func String(s string) uint64 { return Mix(FNV(FNVOffset, s)) }
