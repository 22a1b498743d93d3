// Package bitset provides a dense bit set used by the fixpoint evaluators
// for object-membership matrices and by the clustering/recast stages for
// typed-link hypercube points (popcount distance kernels).
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New to size one.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold bits [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity n the set was created with.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll sets every bit in [0, n).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := uint(s.n) & 63; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether s and t hold the same bits. Sets of different
// capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Grown returns an independent copy of s resized to hold bits [0, n) with
// n >= s.Len(); bits beyond the original capacity are zero. It is how the
// incremental compiler extends a parent snapshot's sets to a delta-grown
// object universe without mutating the shared parent.
func (s *Set) Grown(n int) *Set {
	if n < s.n {
		panic("bitset: Grown to smaller capacity")
	}
	c := New(n)
	copy(c.words, s.words)
	return c
}

// Hash returns an FNV-style hash of the contents, for grouping equal sets.
func (s *Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		h ^= w
		h *= prime
	}
	return h
}

// ForEach calls fn for every set bit, in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Subset reports whether every bit of s is also set in t.
func (s *Set) Subset(t *Set) bool {
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectionCount returns |s ∩ t|.
func (s *Set) IntersectionCount(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// XorCount returns |s Δ t|, the size of the symmetric difference — the
// Manhattan distance between the two sets as points on the binary hypercube
// (§5.2). Sets must have equal capacity.
func (s *Set) XorCount(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w ^ t.words[i])
	}
	return c
}

// AndNotCount returns |s \ t|. A zero result means s ⊆ t.
func (s *Set) AndNotCount(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ t.words[i])
	}
	return c
}

// Or sets s to s ∪ t, in place.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNot sets s to s \ t, in place.
func (s *Set) AndNot(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// And sets s to s ∩ t, in place. Sets must have equal capacity.
func (s *Set) And(t *Set) {
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Rank is a rank directory over a frozen copy of a set: Of(i) is the number
// of set bits below i, in O(1). It lets a dense array index the members of a
// sparse set by their rank.
type Rank struct {
	words  []uint64
	before []int32 // set bits in words [0, w)
}

// Rank returns a rank directory over s's current bits; later changes to s
// do not affect it.
func (s *Set) Rank() *Rank {
	r := &Rank{words: make([]uint64, len(s.words)), before: make([]int32, len(s.words))}
	copy(r.words, s.words)
	c := 0
	for i, w := range r.words {
		r.before[i] = int32(c)
		c += bits.OnesCount64(w)
	}
	return r
}

// Of returns the number of set bits below i in the frozen set.
func (r *Rank) Of(i int) int {
	w := i >> 6
	return int(r.before[w]) + bits.OnesCount64(r.words[w]&(1<<(uint(i)&63)-1))
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// NewBlock returns count sets of capacity n backed by a single contiguous
// words allocation: three allocations total regardless of count, and
// adjacent sets share cache lines, which matters for the all-pairs distance
// kernels.
func NewBlock(count, n int) []*Set {
	w := (n + 63) / 64
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		out[i] = &sets[i]
	}
	return out
}
