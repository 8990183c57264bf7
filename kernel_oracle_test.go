package scanshare_test

import (
	"bytes"
	"testing"
	"time"

	"scanshare"
	"scanshare/internal/workload"
)

// TestTemplatesMatchTupleLoop is the page kernel's differential test at the
// engine's surface: the 22 workload templates at seeds 42 and 7, run
// concurrently through Engine.Run, return byte for byte the rows of the
// tuple-at-a-time fold the kernel replaced (scanshare.OracleRows). Baseline
// scans read their pages in order, so float sums are compared bit for bit.
func TestTemplatesMatchTupleLoop(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		eng := scanshare.MustNew(scanshare.Config{BufferPoolPages: 48, Sharing: scanshare.SharingConfig{MinSharePages: 4}})
		db, err := workload.Load(eng, workload.GenConfig{ScaleFactor: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []scanshare.Job
		for i, tpl := range workload.Templates() {
			jobs = append(jobs, scanshare.Job{Query: tpl.Query(db), Start: time.Duration(i) * 3 * time.Millisecond, Stream: i})
		}
		rep, err := eng.Run(scanshare.Baseline, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, job := range jobs {
			want, err := scanshare.OracleRows(job.Query)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Results[i]
			if !bytes.Equal(scanshare.EncodeAggRows(got.Rows), scanshare.EncodeAggRows(want)) {
				t.Errorf("seed %d %s: rows %v, tuple loop %v", seed, got.Name, got.Rows, want)
			}
		}
	}
}
