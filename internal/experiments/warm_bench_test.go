package experiments

import (
	"context"
	"testing"

	"schemex/internal/core"
	"schemex/internal/synth"
)

// benchWarmExtract measures one whole-schema update over a session with
// retained state: Apply the delta, then re-extract warm-starting Stages 1–3.
// CI runs each of these once under the race detector (`make bench-smoke`) so
// the warm paths stay exercised with concurrency checking on.
func benchWarmExtract(b *testing.B, frac float64) {
	p := synth.Presets()[0]
	db, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{K: p.Intended()}
	prep, err := core.Prepare(context.Background(), db, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.ExtractPrepared(context.Background(), prep, opts); err != nil {
		b.Fatal(err)
	}
	d := benchDelta(db, frac)
	if d == nil {
		b.Skip("shape has no room for an incremental delta")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, _, err := prep.Apply(context.Background(), d, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.ExtractPrepared(context.Background(), child, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Program.Len() == 0 {
			b.Fatal("empty program")
		}
	}
}

func BenchmarkWarmExtract1Edge(b *testing.B) { benchWarmExtract(b, 0) }

func BenchmarkWarmExtract1Pct(b *testing.B) { benchWarmExtract(b, 0.01) }
