package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A Delta is an ordered batch of mutations against a database: added and
// removed link facts, new atomic declarations, and object detachments.
// Objects are addressed by name so a delta can both reference existing
// objects and introduce new ones; names unknown to the target database are
// interned on application (the data model's IDs are dense and append-only,
// so new objects never renumber existing ones).
//
// Deltas are applied with DB.ApplyDelta, which leaves the receiver untouched
// and returns a structurally-shared copy — the foundation of the incremental
// extraction sessions in internal/compile and internal/core.
type Delta struct {
	ops []deltaOp
}

type deltaKind uint8

const (
	opAddLink deltaKind = iota
	opRemoveLink
	opAddAtomic
	opRemoveObject
)

type deltaOp struct {
	kind            deltaKind
	from, to, label string // link ops
	name            string // atomic / remove ops
	value           Value  // atomic op
}

// AddLink records the fact link(from, to, label) for application. Unknown
// names are interned as complex objects when the delta is applied.
func (d *Delta) AddLink(from, to, label string) *Delta {
	d.ops = append(d.ops, deltaOp{kind: opAddLink, from: from, to: to, label: label})
	return d
}

// RemoveLink records the removal of link(from, to, label). Applying a delta
// that removes a missing link is an error.
func (d *Delta) RemoveLink(from, to, label string) *Delta {
	d.ops = append(d.ops, deltaOp{kind: opRemoveLink, from: from, to: to, label: label})
	return d
}

// AddAtomic declares name as an atomic object holding v. Applying the delta
// fails if the object has outgoing edges or already holds a different value.
func (d *Delta) AddAtomic(name string, v Value) *Delta {
	d.ops = append(d.ops, deltaOp{kind: opAddAtomic, name: name, value: v})
	return d
}

// RemoveObject detaches the named object: every incident link and any atomic
// value is removed. The object itself stays interned (IDs are dense and
// never reclaimed), so it survives as an isolated complex object; compiling
// the mutated database sees exactly that.
func (d *Delta) RemoveObject(name string) *Delta {
	d.ops = append(d.ops, deltaOp{kind: opRemoveObject, name: name})
	return d
}

// Len reports the number of recorded operations.
func (d *Delta) Len() int { return len(d.ops) }

// String renders the delta in the line format understood by ParseDelta.
func (d *Delta) String() string {
	var sb strings.Builder
	for _, op := range d.ops {
		switch op.kind {
		case opAddLink:
			fmt.Fprintf(&sb, "link %s %s %s\n", quoteField(op.from), quoteField(op.to), quoteField(op.label))
		case opRemoveLink:
			fmt.Fprintf(&sb, "unlink %s %s %s\n", quoteField(op.from), quoteField(op.to), quoteField(op.label))
		case opAddAtomic:
			fmt.Fprintf(&sb, "atomic %s %s %s\n", quoteField(op.name), op.value.Sort, quoteField(op.value.Text))
		case opRemoveObject:
			fmt.Fprintf(&sb, "remove %s\n", quoteField(op.name))
		}
	}
	return sb.String()
}

// ParseDelta reads the line-oriented delta format, a superset of the graph
// text format's record syntax:
//
//	# comment
//	link <from> <to> <label>
//	unlink <from> <to> <label>
//	atomic <obj> <sort> <value>
//	remove <obj>
//
// Fields are quoted with Go string-literal syntax when they contain spaces.
func ParseDelta(r io.Reader) (*Delta, error) {
	d := &Delta{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("graph: delta line %d: %v", lineNo, err)
		}
		switch fields[0] {
		case "link", "unlink":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: delta line %d: %s needs 3 fields, got %d", lineNo, fields[0], len(fields)-1)
			}
			if fields[0] == "link" {
				d.AddLink(fields[1], fields[2], fields[3])
			} else {
				d.RemoveLink(fields[1], fields[2], fields[3])
			}
		case "atomic":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: delta line %d: atomic needs 3 fields, got %d", lineNo, len(fields)-1)
			}
			s, err := parseSort(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: delta line %d: %v", lineNo, err)
			}
			d.AddAtomic(fields[1], Value{Sort: s, Text: fields[3]})
		case "remove":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: delta line %d: remove needs 1 field, got %d", lineNo, len(fields)-1)
			}
			d.RemoveObject(fields[1])
		default:
			return nil, fmt.Errorf("graph: delta line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseDeltaString is ParseDelta over a string.
func ParseDeltaString(src string) (*Delta, error) {
	return ParseDelta(strings.NewReader(src))
}

// DeltaEffect summarizes what applying a delta changed, in the terms the
// incremental compiler and fixpoint maintenance need: which objects had
// their local neighborhood edited, how the object universe grew, whether the
// label universe may have changed, and whether any existing object switched
// between atomic and complex (which shifts dense complex positions and
// forces a full recompile).
type DeltaEffect struct {
	// Touched lists, in ascending ID order, every object whose incident edge
	// set or atomic value changed — the endpoints of added and removed links,
	// freshly declared atomics, and detached objects — plus every object
	// created by the delta.
	Touched []ObjectID
	// OldObjects is the object count before application; IDs >= OldObjects
	// are new.
	OldObjects int
	// AddedLinks and RemovedLinks count the link facts that actually changed
	// (idempotent re-adds are not counted).
	AddedLinks, RemovedLinks int
	// LabelDelta maps each edge label whose occurrence count changed to the
	// net change. The compiler uses it to detect label-universe growth or
	// shrinkage, either of which renumbers label IDs.
	LabelDelta map[string]int
	// Flipped reports that an existing object changed between atomic and
	// complex (an atomic was detached, or a link-target-only object was
	// declared atomic).
	Flipped bool
}

// ApplyDelta applies d to a structurally-shared copy of db and returns the
// copy: per-object edge slices are shared with the receiver and copied only
// for objects the delta touches, so the cost is proportional to the delta's
// neighborhood plus O(objects) slice headers — not to the database size. The
// receiver is never mutated and every snapshot compiled from it stays valid.
//
// Operations apply in order; the first constraint violation (linking out of
// an atomic object, conflicting atomic values, removing a missing link or
// unknown object) aborts with an error and no database is returned.
func (db *DB) ApplyDelta(d *Delta) (*DB, *DeltaEffect, error) {
	db.ensureSorted() // child shares parent slices; flush lazy sorting first
	c := &DB{
		// Clipped append-only shares: growing reallocates, never writes the
		// parent's backing array.
		names:  db.names[:len(db.names):len(db.names)],
		byName: db.byName, // copied on first new name
		atomic: db.atomic, // copied on first atomic change
		out:    append(make([][]Edge, 0, len(db.out)+d.Len()), db.out...),
		in:     append(make([][]Edge, 0, len(db.in)+d.Len()), db.in...),
		nLinks: db.nLinks,
		dirty:  make(map[ObjectID]bool),
	}
	eff := &DeltaEffect{OldObjects: db.NumObjects(), LabelDelta: make(map[string]int)}
	touched := make(map[ObjectID]bool)
	owned := make(map[ObjectID]bool)
	ownsNames, ownsAtomic := false, false

	intern := func(name string) ObjectID {
		if id, ok := c.byName[name]; ok {
			return id
		}
		if !ownsNames {
			m := make(map[string]ObjectID, len(c.byName)+d.Len())
			for n, id := range c.byName {
				m[n] = id
			}
			c.byName = m
			ownsNames = true
		}
		id := ObjectID(len(c.names))
		c.names = append(c.names, name)
		c.byName[name] = id
		c.out = append(c.out, nil)
		c.in = append(c.in, nil)
		owned[id] = true
		touched[id] = true
		return id
	}
	own := func(o ObjectID) {
		if owned[o] {
			return
		}
		// Exact-capacity copies: a later append reallocates instead of
		// writing into the shared parent backing array.
		c.out[o] = append(make([]Edge, 0, len(c.out[o])), c.out[o]...)
		c.in[o] = append(make([]Edge, 0, len(c.in[o])), c.in[o]...)
		owned[o] = true
	}
	ownAtomic := func() {
		if ownsAtomic {
			return
		}
		m := make(map[ObjectID]Value, len(c.atomic)+1)
		for o, v := range c.atomic {
			m[o] = v
		}
		c.atomic = m
		ownsAtomic = true
	}
	removeEdge := func(from, to ObjectID, label string) bool {
		own(from)
		own(to)
		outs := c.out[from]
		removed := false
		for i, e := range outs {
			if e.To == to && e.Label == label {
				c.out[from] = append(outs[:i:i], outs[i+1:]...)
				removed = true
				break
			}
		}
		if !removed {
			return false
		}
		ins := c.in[to]
		for i, e := range ins {
			if e.From == from && e.Label == label {
				c.in[to] = append(ins[:i:i], ins[i+1:]...)
				break
			}
		}
		c.nLinks--
		eff.RemovedLinks++
		eff.LabelDelta[label]--
		touched[from] = true
		touched[to] = true
		return true
	}

	for i, op := range d.ops {
		switch op.kind {
		case opAddLink:
			from := intern(op.from)
			to := intern(op.to)
			if _, ok := c.atomic[from]; ok {
				return nil, nil, fmt.Errorf("graph: delta op %d: %q is atomic and cannot have outgoing edges", i, op.from)
			}
			if c.hasEdge(from, to, op.label) {
				continue // the model keeps at most one ℓ-edge per pair
			}
			own(from)
			own(to)
			e := Edge{From: from, To: to, Label: op.label}
			c.out[from] = append(c.out[from], e)
			c.in[to] = append(c.in[to], e)
			c.nLinks++
			c.dirty[from] = true
			c.dirty[to] = true
			eff.AddedLinks++
			eff.LabelDelta[op.label]++
			touched[from] = true
			touched[to] = true
		case opRemoveLink:
			from, okF := c.byName[op.from]
			to, okT := c.byName[op.to]
			if !okF || !okT || !removeEdge(from, to, op.label) {
				return nil, nil, fmt.Errorf("graph: delta op %d: link(%s, %s, %s) not present", i, op.from, op.to, op.label)
			}
		case opAddAtomic:
			o := intern(op.name)
			if len(c.out[o]) > 0 {
				return nil, nil, fmt.Errorf("graph: delta op %d: %q has outgoing edges and cannot be atomic", i, op.name)
			}
			if old, ok := c.atomic[o]; ok {
				if old != op.value {
					return nil, nil, fmt.Errorf("graph: delta op %d: %q already has value %q", i, op.name, old.Text)
				}
				continue
			}
			ownAtomic()
			c.atomic[o] = op.value
			touched[o] = true
		case opRemoveObject:
			o, ok := c.byName[op.name]
			if !ok {
				return nil, nil, fmt.Errorf("graph: delta op %d: unknown object %q", i, op.name)
			}
			own(o)
			for len(c.out[o]) > 0 {
				e := c.out[o][0]
				removeEdge(e.From, e.To, e.Label)
			}
			for len(c.in[o]) > 0 {
				e := c.in[o][0]
				removeEdge(e.From, e.To, e.Label)
			}
			if _, ok := c.atomic[o]; ok {
				ownAtomic()
				delete(c.atomic, o)
				touched[o] = true
			}
		}
	}

	for o := range touched {
		eff.Touched = append(eff.Touched, o)
		if int(o) < eff.OldObjects && db.IsAtomic(o) != c.IsAtomic(o) {
			eff.Flipped = true
		}
	}
	sort.Slice(eff.Touched, func(i, j int) bool { return eff.Touched[i] < eff.Touched[j] })
	for l, n := range eff.LabelDelta {
		if n == 0 {
			delete(eff.LabelDelta, l)
		}
	}
	return c, eff, nil
}
