package workload

import (
	"testing"

	"scanshare"
)

// BenchmarkLoad is the set-up cost every repository benchmark repetition
// pays before it measures anything: one scale-40 Load (a lineitem of about
// 13 200 pages and the three smaller tables) into a fresh engine whose pool
// is the paper's 5 %. Building the engine is outside the timed section.
func BenchmarkLoad(b *testing.B) {
	cfg := GenConfig{ScaleFactor: 40, Seed: 42}
	pool := BufferPoolFor(cfg, 0, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: pool})
		b.StartTimer()
		db, err := Load(eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(db.TotalPages()), "pages")
	}
}
