package experiments

import "testing"

func TestFig12(t *testing.T) {
	rows := Fig12()
	if len(rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	included := 0
	for _, r := range rows {
		if r.Included {
			included++
		}
	}
	if included != 16 {
		t.Errorf("included = %d, want 16 (9 XMP + 2 TREE + 5 R)", included)
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := Fig13(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cascade size must shrink down the chain: region deletes the most.
	if rows[0].RowsDeleted <= rows[4].RowsDeleted {
		t.Errorf("region cascade (%d) should exceed lineitem (%d)",
			rows[0].RowsDeleted, rows[4].RowsDeleted)
	}
	// Order 1 carries 3 lineitems, so the lineitem-level delete removes
	// exactly those; every level must shrink or hold along the chain.
	for i := 1; i < len(rows); i++ {
		if rows[i].RowsDeleted > rows[i-1].RowsDeleted {
			t.Errorf("cascade sizes not monotone: %s=%d > %s=%d",
				rows[i].Relation, rows[i].RowsDeleted, rows[i-1].Relation, rows[i-1].RowsDeleted)
		}
	}
	for _, r := range rows {
		if r.Update <= 0 || r.WithSTAR <= 0 {
			t.Errorf("%s: non-positive timings %v %v", r.Relation, r.Update, r.WithSTAR)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	rows, err := Fig14(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// STAR's static rejection must be far cheaper than the blind
		// execute-diff-rollback baseline.
		if r.STAR*10 > r.Blind {
			t.Errorf("%s: STAR %v not clearly cheaper than blind %v", r.Relation, r.STAR, r.Blind)
		}
	}
	if rows[0].RowsTouched <= rows[4].RowsTouched {
		t.Errorf("blind region cascade (%d) should exceed lineitem (%d)",
			rows[0].RowsTouched, rows[4].RowsTouched)
	}
}

func TestSTARMarkingCheap(t *testing.T) {
	mt, err := STARMarking(1)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Vsuccess <= 0 || mt.Vfail <= 0 {
		t.Errorf("timings %v %v", mt.Vsuccess, mt.Vfail)
	}
}

func TestFig15Shape(t *testing.T) {
	rows, err := Fig15([]int{2}, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The internal strategy's wide probe + view-tuple insert must do
	// more work than the external single-table path. Counted, not
	// timed: the wall-clock ordering flips on a loaded machine.
	if r.ExternalProbes <= 0 || r.InternalProbes <= r.ExternalProbes {
		t.Errorf("internal index probes %d should exceed external %d (> 0)", r.InternalProbes, r.ExternalProbes)
	}
	t.Logf("internal %v/op, %d probes; external %v/op, %d probes", r.Internal, r.InternalProbes, r.External, r.ExternalProbes)
}

func TestFig16Shape(t *testing.T) {
	rows, err := Fig16([]int{2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Hybrid avoids the outside strategy's extra probes on success.
	if r.Hybrid > r.Outside*2 {
		t.Errorf("hybrid %v unexpectedly slower than outside %v", r.Hybrid, r.Outside)
	}
}

func TestFig17Shape(t *testing.T) {
	rows, err := Fig17([]int{2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HybridFail1 <= 0 || r.OutsideFail1 <= 0 || r.HybridFail2 <= 0 || r.OutsideFail2 <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
}
