// Package experiments regenerates the paper's evaluation section: Table 1
// (eight synthetic datasets), Figure 1 (the DBG optimal typing program) and
// Figure 6 (the DBG sensitivity graph). cmd/experiments is a thin CLI over
// this package; the package is also exercised directly by tests and by the
// root benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"schemex/internal/core"
	"schemex/internal/dbg"
	"schemex/internal/synth"
)

// Table1Row is one measured row of Table 1 next to the paper's values.
type Table1Row struct {
	DBNo      int
	Bipartite bool
	Overlap   bool
	Perturbed bool
	Intended  int

	Objects      int
	Links        int
	PerfectTypes int
	OptimalTypes int
	Defect       int

	Paper synth.PaperRow
}

// Table1 runs the full pipeline on every preset and returns the rows. The
// eight datasets are independent, so they run in parallel; the row order is
// fixed.
func Table1() ([]Table1Row, error) {
	presets := synth.Presets()
	rows := make([]Table1Row, len(presets))
	errs := make([]error, len(presets))
	var wg sync.WaitGroup
	for i, p := range presets {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, err := p.Build()
			if err != nil {
				errs[i] = fmt.Errorf("DB%d: %v", p.DBNo, err)
				return
			}
			res, err := core.Extract(db, core.Options{K: p.Intended()})
			if err != nil {
				errs[i] = fmt.Errorf("DB%d: %v", p.DBNo, err)
				return
			}
			rows[i] = Table1Row{
				DBNo:         p.DBNo,
				Bipartite:    p.Bipartite(),
				Overlap:      p.Overlap(),
				Perturbed:    p.Perturb,
				Intended:     p.Intended(),
				Objects:      db.NumObjects(),
				Links:        db.NumLinks(),
				PerfectTypes: res.PerfectTypes,
				OptimalTypes: res.Program.Len(),
				Defect:       res.Defect.Total(),
				Paper:        p.Paper,
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// WriteTable1 renders the rows in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Synthetic Data Results (measured vs paper)")
	fmt.Fprintln(w, "DB  Bip Ovl Per | Intnd |  Objects   |   Links    | Perfect    | Optimal | Defect")
	fmt.Fprintln(w, "                |       | meas paper | meas paper | meas paper |  types  | meas paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%2d   %s   %s   %s  |  %2d   | %4d %4d  | %4d %4d  | %4d %4d  |   %2d    | %4d %4d\n",
			r.DBNo, yn(r.Bipartite), yn(r.Overlap), yn(r.Perturbed), r.Intended,
			r.Objects, r.Paper.Objects,
			r.Links, r.Paper.Links,
			r.PerfectTypes, r.Paper.PerfectTypes,
			r.OptimalTypes,
			r.Defect, r.Paper.Defect)
	}
	fmt.Fprintln(w)
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// Figure1Result is the DBG optimal-typing experiment.
type Figure1Result struct {
	Stats        string
	PerfectTypes int
	OptimalTypes int
	Excess       int
	Deficit      int
	Program      string
}

// Figure1 extracts the six-type DBG typing, with final clusters renamed by
// the majority ground-truth role of their home objects (the way the paper's
// figure names its types).
func Figure1() (*Figure1Result, error) {
	db, roles := dbg.Generate(dbg.Options{})
	res, err := core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor})
	if err != nil {
		return nil, err
	}
	RenameByMajorityRole(res, roles)
	return &Figure1Result{
		Stats:        db.Stats().String(),
		PerfectTypes: res.PerfectTypes,
		OptimalTypes: res.Program.Len(),
		Excess:       res.Defect.Excess,
		Deficit:      res.Defect.Deficit,
		Program:      res.Program.String(),
	}, nil
}

// WriteFigure1 renders the experiment.
func WriteFigure1(w io.Writer, r *Figure1Result) {
	fmt.Fprintf(w, "Figure 1: Optimal typing program for DBG data set (%s)\n", r.Stats)
	fmt.Fprintf(w, "perfect typing: %d types; optimal typing: %d types; defect %d (excess %d, deficit %d)\n\n",
		r.PerfectTypes, r.OptimalTypes, r.Excess+r.Deficit, r.Excess, r.Deficit)
	fmt.Fprint(w, r.Program)
	fmt.Fprintln(w)
}

// RenameByMajorityRole relabels the final clusters of a DBG extraction with
// the dominant ground-truth role of their home objects, disambiguating
// collisions.
func RenameByMajorityRole(res *core.Result, roles dbg.Roles) {
	counts := make([]map[string]int, res.Program.Len())
	for i := range counts {
		counts[i] = make(map[string]int)
	}
	for o, hs := range res.Homes {
		for _, h := range hs {
			counts[h][roles[o]]++
		}
	}
	used := make(map[string]bool)
	for i, t := range res.Program.Types {
		best, bestN := t.Name, 0
		for role, n := range counts[i] {
			if role != "" && (n > bestN || (n == bestN && role < best)) {
				best, bestN = role, n
			}
		}
		name := best
		for n := 2; used[name]; n++ {
			name = fmt.Sprintf("%s%d", best, n)
		}
		used[name] = true
		t.Name = name
	}
}

// Figure6 runs the DBG sensitivity sweep.
func Figure6() (*core.SweepResult, error) {
	db, roles := dbg.Generate(dbg.Options{})
	return core.Sweep(context.Background(), db, core.Options{NameFor: roles.NameFor})
}

// WriteFigure6 renders the sweep in increasing-K order with the suggested
// elbow.
func WriteFigure6(w io.Writer, sw *core.SweepResult) {
	fmt.Fprintln(w, "Figure 6: Sensitivity graph for DBG data set")
	fmt.Fprintln(w, "types  defect  excess  deficit  total-distance")
	for i := len(sw.Points) - 1; i >= 0; i-- {
		p := sw.Points[i]
		fmt.Fprintf(w, "%5d  %6d  %6d  %7d  %14.1f\n", p.K, p.Defect, p.Excess, p.Deficit, p.TotalDistance)
	}
	fmt.Fprintf(w, "elbow (suggested number of types): %d (paper: optimal range 6-10)\n\n", sw.Knee())
}
