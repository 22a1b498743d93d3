// Warm re-entry for the greedy engine. Seeding the distance matrix is the
// engine's only O(n²) phase: every cell is a popcount over two L-bit
// definitions, and the whole strict upper triangle is recomputed on every
// extraction even when a delta perturbed only a handful of types. A State captures the seeded
// pre-merge triangle of one engine run; a later run over a program that
// provably mirrors the captured one (up to an injective renaming of type
// slots) copies the surviving cells instead of recounting them and popcounts
// only the cells a dirty slot touches.
//
// Soundness. A matrix cell is |defᵢ Δ defⱼ| where definitions are sets of
// (base, target-slot) pairs — the base carries direction/label/sort/value.
// Symmetric-difference cardinality is invariant under any injective renaming
// of the pair alphabet, and renaming target slots (bases fixed) is injective
// whenever the slot map is. MatchDefinitions verifies exactly that: child
// slot i may map to parent slot m(i) only if i's definition is the image of
// m(i)'s under the map. A warm-seeded matrix is therefore cell-for-cell equal
// to the cold-seeded one, and since the merge sequence is a deterministic
// function of the matrix, weights, and config, warm runs are bit-identical
// to cold runs — the copy is a shortcut, never an approximation.
package cluster

import (
	"schemex/internal/typing"
)

// DirtySlot marks a child slot with no usable parent counterpart in a warm
// mapping: its matrix cells are recomputed from scratch.
const DirtySlot = -1

// State is an immutable capture of a Greedy engine's seeded, pre-merge
// distance matrix together with the program it was seeded from. Obtain one
// with Greedy.State before the first Step; feed it back through Warm to seed
// a later engine. A State is safe for concurrent use by any number of warm
// constructions.
type State struct {
	prog *typing.Program
	n    int
	dist []uint32 // strict upper triangle, row-major; read-only once captured
}

// at reads the captured triangle; i and j must be distinct and < n.
func (s *State) at(i, j int) uint32 {
	if i > j {
		i, j = j, i
	}
	return s.dist[i*(s.n-1)-i*(i-1)/2+j-i-1]
}

// Warm seeds a new engine from a parent State. Map[i] names the parent slot
// whose definition child slot i provably mirrors, or DirtySlot. Build the
// mapping with MatchDefinitions; a hand-rolled map that violates its
// invariants produces a wrong matrix (warm seeding trusts the map).
type Warm struct {
	State *State
	Map   []int
}

// usable reports whether w can seed an engine over n child slots.
func (w *Warm) usable(n int) bool {
	return w != nil && w.State != nil && len(w.Map) == n
}

// isIdentity reports whether every child slot maps to the same parent slot
// and the slot counts agree — the child program mirrors the parent exactly,
// so the parent matrix can be aliased rather than copied.
func (w *Warm) isIdentity(n int) bool {
	if w.State.n != n {
		return false
	}
	for i, m := range w.Map {
		if m != i {
			return false
		}
	}
	return true
}

// MatchDefinitions vets a proposed child-slot → parent-slot mapping against
// the definitions on both sides, returning the mapping with every unprovable
// entry demoted to DirtySlot plus the number of surviving (clean) slots.
//
// proposal[i] is the candidate parent slot for child slot i (DirtySlot for
// none); callers typically propose by Stage 1 class-membership equality. An
// entry survives only if
//   - the candidate is in range and no other child slot claimed it
//     (injectivity), and
//   - child i's links equal parent proposal[i]'s links with every class
//     target c rewritten to proposal[c] — which requires each such target to
//     be matched itself.
//
// The check is purely local (no fixpoint): a matrix cell depends only on the
// two definitions as link sets, so target slots need matched members, not
// matched definitions of their own.
func MatchDefinitions(child *typing.Program, st *State, proposal []int) ([]int, int) {
	n := len(child.Types)
	vetted := make([]int, n)
	claimed := make([]bool, st.n)
	for i := range vetted {
		vetted[i] = DirtySlot
		if i >= len(proposal) {
			continue
		}
		if p := proposal[i]; p >= 0 && p < st.n && !claimed[p] {
			vetted[i] = p
			claimed[p] = true
		}
	}
	clean := 0
	var scratch map[typing.TypedLink]int
	for i, p := range vetted {
		if p == DirtySlot {
			continue
		}
		if definitionMirrors(child.Types[i].Links, st.prog.Types[p].Links, vetted, &scratch) {
			clean++
		} else {
			vetted[i] = DirtySlot
		}
	}
	return vetted, clean
}

// definitionMirrors reports whether childLinks equals parentLinks with every
// class target rewritten through m (child slot → parent slot). Links are
// compared as multisets; the rewrite (base, c) → (base, m(c)) is injective
// because m is, so multiset equality after rewriting is definition equality
// up to the renaming.
func definitionMirrors(childLinks, parentLinks []typing.TypedLink, m []int, scratch *map[typing.TypedLink]int) bool {
	if len(childLinks) != len(parentLinks) {
		return false
	}
	counts := *scratch
	if counts == nil {
		counts = make(map[typing.TypedLink]int, len(parentLinks))
		*scratch = counts
	}
	for _, l := range parentLinks {
		counts[l]++
	}
	ok := true
	for _, l := range childLinks {
		if l.Target != typing.AtomicTarget {
			if l.Target >= len(m) || m[l.Target] == DirtySlot {
				ok = false
				break
			}
			l.Target = m[l.Target]
		}
		if counts[l] == 0 {
			ok = false
			break
		}
		counts[l]--
	}
	for _, l := range parentLinks { // reset scratch for the next type
		delete(counts, l)
	}
	return ok
}
