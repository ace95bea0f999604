package w3cusecases

import "testing"

// TestFig12Exact asserts the included/excluded outcome of every query
// matches the paper's Fig. 12 table.
func TestFig12Exact(t *testing.T) {
	want := map[string]bool{
		"XMP-Q1": true, "XMP-Q2": true, "XMP-Q3": true, "XMP-Q5": true,
		"XMP-Q7": true, "XMP-Q8": true, "XMP-Q9": true, "XMP-Q11": true, "XMP-Q12": true,
		"XMP-Q4": false, "XMP-Q10": false, "XMP-Q6": false,
		"TREE-Q1": true, "TREE-Q2": true,
		"TREE-Q3": false, "TREE-Q4": false, "TREE-Q5": false, "TREE-Q6": false,
		"R-Q1": true, "R-Q3": true, "R-Q4": true, "R-Q16": true, "R-Q17": true,
		"R-Q2": false, "R-Q5": false, "R-Q6": false, "R-Q7": false, "R-Q8": false,
		"R-Q9": false, "R-Q10": false, "R-Q11": false, "R-Q12": false, "R-Q13": false,
		"R-Q14": false, "R-Q15": false, "R-Q18": false,
	}
	rows := CoverageTable()
	if len(rows) != len(want) {
		t.Fatalf("catalogue has %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		expected, ok := want[r.ID]
		if !ok {
			t.Errorf("unexpected query %s", r.ID)
			continue
		}
		if r.Included != expected {
			t.Errorf("%s: included=%v, want %v (reason %q)", r.ID, r.Included, expected, r.Reason)
		}
		if !r.Included && r.Reason == "" {
			t.Errorf("%s: excluded without a reason", r.ID)
		}
		if r.Included && r.Reason != "" {
			t.Errorf("%s: included with reason %q", r.ID, r.Reason)
		}
	}
}

// TestFig12ExclusionReasons spot-checks the reasons the paper prints.
func TestFig12ExclusionReasons(t *testing.T) {
	byID := map[string]Row{}
	for _, r := range CoverageTable() {
		byID[r.ID] = r
	}
	cases := map[string]string{
		"XMP-Q4":  "Distinct()",
		"XMP-Q6":  "Count()",
		"TREE-Q3": "Count()",
		"R-Q18":   "Distinct()",
	}
	for id, reason := range cases {
		if got := byID[id].Reason; got != reason {
			t.Errorf("%s: reason = %q, want %q", id, got, reason)
		}
	}
	// R-Q5 excluded by an aggregate.
	if got := byID["R-Q5"].Reason; got != "max()" {
		t.Errorf("R-Q5 reason = %q", got)
	}
}

func TestCounts(t *testing.T) {
	c := Counts()
	if c["XMP"] != [2]int{9, 3} {
		t.Errorf("XMP = %v, want 9 included / 3 excluded", c["XMP"])
	}
	if c["TREE"] != [2]int{2, 4} {
		t.Errorf("TREE = %v, want 2/4", c["TREE"])
	}
	if c["R"] != [2]int{5, 13} {
		t.Errorf("R = %v, want 5/13", c["R"])
	}
}

// Counts summarizes the coverage per group.
func Counts() map[string][2]int {
	out := map[string][2]int{}
	for _, u := range Catalogue() {
		ok, _ := u.Supported()
		c := out[u.Group]
		if ok {
			c[0]++
		} else {
			c[1]++
		}
		out[u.Group] = c
	}
	return out
}
