// Sharded snapshot layout: objects are partitioned into fixed ranges of
// 2^shardShift IDs, and each Shard owns the CSR block, position view, and
// complex-position range of its object range. Shards are immutable
// fixed-range blocks that a delta-derived snapshot aliases wholesale when
// untouched, which is what makes compile, Apply, the GFP's witness bound and
// its propagation shard-parallel.
package compile

import (
	"os"
	"strconv"

	"schemex/internal/graph"
)

const (
	// minShardShift floors the shard size at 64 objects so a shard range is
	// always a whole number of bitset words: shard-parallel writers (the GFP
	// frontier exchange, the atomic-bitset fill) never touch a word another
	// shard's worker owns.
	minShardShift = 6
	// autoShardShift sizes shards when the caller asks for automatic layout
	// (shards == 0): 8192 objects per shard keeps a shard's CSR block in the
	// hundreds-of-KB range for realistic degrees — big enough that per-shard
	// bookkeeping is noise, small enough that a point delta rebuilds a
	// sliver of the snapshot and compile fans out on every core.
	autoShardShift = 13
	// maxShardShift makes "one shard" exact for any graph that fits in the
	// int32 object-ID space.
	maxShardShift = 31
)

// TestShardsEnv, when set to a positive integer, overrides the automatic
// shard count (and only the automatic one — an explicit count wins) so
// the whole test suite can be driven through a fixed shard layout without
// threading an option into every call site. CI runs the race-detector leg
// under SCHEMEX_TEST_SHARDS=1 and =4.
const TestShardsEnv = "SCHEMEX_TEST_SHARDS"

// shardShiftFor picks the shard-size exponent for a requested shard count
// over an n-object graph: 0 means automatic, 1 means a single flat block
// (the pre-sharding layout), and k > 1 means the smallest power-of-two size
// (≥ the 64-object floor) that covers n with at most k shards.
func shardShiftFor(shards, n int) uint {
	if shards <= 0 {
		if v, err := strconv.Atoi(os.Getenv(TestShardsEnv)); err == nil && v > 0 {
			return shardShiftFor(v, n)
		}
		return autoShardShift
	}
	if shards == 1 {
		return maxShardShift
	}
	per := (n + shards - 1) / shards
	s := uint(minShardShift)
	for s < maxShardShift && 1<<s < per {
		s++
	}
	return s
}

// numShards is the shard count covering n objects at the given size
// exponent: zero for an empty graph.
func numShards(n int, shift uint) int {
	return (n + (1 << shift) - 1) >> shift
}

// Shard is one fixed range of the object-ID space and everything the
// snapshot knows about it. CSR offsets are local to the shard (OutOff[0] is
// always 0), so a shard's block is self-contained: Apply rebuilds or aliases
// shards independently, and a durable spill writes one codec file per shard
// (EncodeShard) that LoadSnapshot reads back and checks against the core.
//
// Pos and Complex are views into the snapshot's global tables
// (Pos[Base:Base+N] and Complex[PosBase:PosBase+PosN]), not copies: the
// shard owns its slice of those tables, while positional consumers (Q_D
// construction, the recast rows) keep the O(1) global indexing they were
// written against. A loaded snapshot's shards alias its tables the same way.
type Shard struct {
	// Base is the first object ID of the shard's range; N the number of
	// objects in it (only the last shard of a snapshot may be short).
	Base, N int
	// PosBase is the dense complex position of the shard's first complex
	// object; PosN how many complex objects the shard holds. Positions are
	// assigned in object-ID order, so a shard's complex objects occupy the
	// contiguous range [PosBase, PosBase+PosN).
	PosBase, PosN int

	// OutOff/InOff have length N+1 and are shard-local: the edges of the
	// shard's i-th object occupy [Off[i], Off[i+1]) of the shard's arrays.
	OutOff, InOff []int32
	// OutTo/OutLab hold the target object ID (global) and label ID of each
	// outgoing edge; InFrom/InLab mirror them for incoming edges.
	OutTo, OutLab, InFrom, InLab []int32

	// Views into the snapshot's global tables for this shard's ranges; see
	// the type comment.
	Pos     []int32
	Complex []graph.ObjectID
}

// newShard allocates the offset arrays and table views for shard si of s.
// The snapshot's global Pos/Complex tables must already be built.
func newShard(s *Snapshot, si int, posLo, posHi int) *Shard {
	size := 1 << s.shardShift
	base := si * size
	n := s.NumObjects() - base
	if n > size {
		n = size
	}
	sh := &Shard{
		Base: base, N: n,
		PosBase: posLo, PosN: posHi - posLo,
		OutOff: make([]int32, n+1),
		InOff:  make([]int32, n+1),
		Pos:    s.Pos[base : base+n : base+n],
	}
	sh.Complex = s.Complex[posLo:posHi:posHi]
	return sh
}

// alloc sizes the shard's edge arrays from its completed offset arrays.
// Unlike the global layout, a shard's in-degree and out-degree totals need
// not match: only the whole graph's do.
func (sh *Shard) alloc() {
	nOut := int(sh.OutOff[sh.N])
	sh.OutTo = make([]int32, nOut)
	sh.OutLab = make([]int32, nOut)
	nIn := int(sh.InOff[sh.N])
	sh.InFrom = make([]int32, nIn)
	sh.InLab = make([]int32, nIn)
}

// reslice returns a copy of the shard whose table views point into the given
// snapshot's (equal-valued) global tables. Apply uses it when new objects
// forced fresh global tables: the shard's CSR arrays — the bulk — stay
// shared with the parent, only the two view headers are rebound.
// LoadSnapshot uses it to bind a decoded shard's views to the core's tables.
func (sh *Shard) reslice(s *Snapshot) *Shard {
	c := *sh
	c.Pos = s.Pos[c.Base : c.Base+c.N : c.Base+c.N]
	c.Complex = s.Complex[c.PosBase : c.PosBase+c.PosN : c.PosBase+c.PosN]
	return &c
}

// NumShards reports how many fixed-range object shards the snapshot holds
// (zero for an empty graph).
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardSize reports the number of object IDs each shard range spans (the
// last shard may hold fewer objects).
func (s *Snapshot) ShardSize() int { return 1 << s.shardShift }

// ShardOf reports the index of the shard owning object o.
func (s *Snapshot) ShardOf(o graph.ObjectID) int { return int(o) >> s.shardShift }

// Shard returns shard i. The shard and everything it references are
// immutable, like the snapshot itself.
func (s *Snapshot) Shard(i int) *Shard { return s.shards[i] }
