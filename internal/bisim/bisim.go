// Package bisim computes the coarsest partition of a semistructured
// database's complex objects stable under bisimulation over both incoming
// and outgoing labeled edges — the comparison point §4 of the paper draws
// ("the process of partitioning objects into a collection of home types is
// similar in spirit to bisimulation").
//
// All atomic objects form one fixed block (the paper's type₀). Refinement is
// signature based: each round recomputes, for every complex object, the set
// of (direction, label, neighbour-block) triples, and splits blocks whose
// members disagree. The process is the splitting procedure the paper
// sketches, run to fixpoint.
package bisim

import (
	"sort"
	"strconv"
	"strings"

	"schemex/internal/graph"
)

// Partition assigns each complex object to a block. Blocks are numbered
// 0..N-1; atomic objects have block -1 (type₀).
type Partition struct {
	db      *graph.DB
	BlockOf map[graph.ObjectID]int
	Blocks  [][]graph.ObjectID
	Rounds  int // refinement rounds until stable
}

// AtomicBlock is the block of all atomic objects.
const AtomicBlock = -1

// Compute returns the coarsest in/out bisimulation partition of db. check is
// a cooperative cancellation checkpoint consulted once per refinement round
// (nil: never cancel, and Compute cannot fail). Each round touches every
// object, so the per-round check bounds cancel latency at one round's work
// without perturbing the refinement itself.
func Compute(db *graph.DB, check func() error) (*Partition, error) {
	objs := db.ComplexObjects()
	blockOf := make(map[graph.ObjectID]int, len(objs))
	for _, o := range objs {
		blockOf[o] = 0
	}
	nBlocks := 1
	if len(objs) == 0 {
		return &Partition{db: db, BlockOf: blockOf}, nil
	}

	rounds := 0
	for {
		rounds++
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
		sig := make(map[graph.ObjectID]string, len(objs))
		for _, o := range objs {
			sig[o] = signature(db, o, blockOf)
		}
		// Split every block by signature. Block numbering is deterministic:
		// blocks ordered by (old block, signature).
		type key struct {
			old int
			sig string
		}
		groups := make(map[key][]graph.ObjectID)
		for _, o := range objs {
			k := key{blockOf[o], sig[o]}
			groups[k] = append(groups[k], o)
		}
		keys := make([]key, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].old != keys[j].old {
				return keys[i].old < keys[j].old
			}
			return keys[i].sig < keys[j].sig
		})
		if len(keys) == nBlocks {
			// Stable: materialize the result.
			p := &Partition{db: db, BlockOf: blockOf, Rounds: rounds}
			p.Blocks = make([][]graph.ObjectID, nBlocks)
			for _, o := range objs {
				b := blockOf[o]
				p.Blocks[b] = append(p.Blocks[b], o)
			}
			for _, b := range p.Blocks {
				sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			}
			return p, nil
		}
		newBlockOf := make(map[graph.ObjectID]int, len(objs))
		for nb, k := range keys {
			for _, o := range groups[k] {
				newBlockOf[o] = nb
			}
		}
		blockOf = newBlockOf
		nBlocks = len(keys)
	}
}

// signature encodes the local picture of o under the current partition: the
// sorted set of distinct (direction, label, neighbour block) triples.
func signature(db *graph.DB, o graph.ObjectID, blockOf map[graph.ObjectID]int) string {
	seen := make(map[string]bool)
	for _, e := range db.Out(o) {
		b := AtomicBlock
		if !db.IsAtomic(e.To) {
			b = blockOf[e.To]
		}
		seen[">"+e.Label+"\x00"+strconv.Itoa(b)] = true
	}
	for _, e := range db.In(o) {
		seen["<"+e.Label+"\x00"+strconv.Itoa(blockOf[e.From])] = true
	}
	parts := make([]string, 0, len(seen))
	for s := range seen {
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// NumBlocks returns the number of blocks of complex objects.
func (p *Partition) NumBlocks() int { return len(p.Blocks) }

// Same reports whether two complex objects are bisimilar.
func (p *Partition) Same(a, b graph.ObjectID) bool {
	ba, oka := p.BlockOf[a]
	bb, okb := p.BlockOf[b]
	return oka && okb && ba == bb
}
