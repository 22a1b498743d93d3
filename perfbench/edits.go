package main

import (
	"math/rand"

	"schemex/internal/graph"
)

// maxOutstanding caps the edges the edit stream has removed and not yet
// restored, which keeps the graph's size stationary.
const maxOutstanding = 8

type edge struct{ from, to, label string }

// editStream is a seeded stream of single-edge deltas: reference and
// attribute edges are removed and later restored, never more than
// maxOutstanding at once, and no object is ever created.
type editStream struct {
	rng     *rand.Rand
	present []edge
	removed []edge
}

func newEditStream(db *graph.DB, seed int64) *editStream {
	s := &editStream{rng: rand.New(rand.NewSource(seed))}
	db.Links(func(e graph.Edge) {
		s.present = append(s.present, edge{db.Name(e.From), db.Name(e.To), e.Label})
	})
	return s
}

// next returns the next delta in the line format.
func (s *editStream) next() string {
	var d graph.Delta
	if len(s.removed) == maxOutstanding || (len(s.removed) > 0 && s.rng.Intn(2) == 0) {
		e := take(&s.removed, s.rng.Intn(len(s.removed)))
		s.present = append(s.present, e)
		d.AddLink(e.from, e.to, e.label)
	} else {
		e := take(&s.present, s.rng.Intn(len(s.present)))
		s.removed = append(s.removed, e)
		d.RemoveLink(e.from, e.to, e.label)
	}
	return d.String()
}

// take removes and returns (*es)[i], moving the last element into its place.
func take(es *[]edge, i int) edge {
	e := (*es)[i]
	last := len(*es) - 1
	(*es)[i] = (*es)[last]
	*es = (*es)[:last]
	return e
}
