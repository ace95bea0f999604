package main

import (
	"strings"
	"testing"
)

func TestSelectSeries(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    string // comma-joined result
		errHas  []string
		comment string
	}{
		{only: "", want: strings.Join(series, ","), comment: "empty selects all"},
		{only: "fig13", want: "fig13"},
		{only: " Fig17 , fig12,marking", want: "fig12,marking,fig17", comment: "print order, case and spaces ignored"},
		{only: "plan", errHas: []string{`"plan"`, "fig12, fig13, fig14, marking, fig15, fig16, fig17"}},
		{only: "fig13,page,commit", errHas: []string{`"commit", "page"`, "valid:"}, comment: "mixed list fails as a whole"},
		{only: "fig13,", errHas: []string{`""`}, comment: "trailing comma is an empty name"},
	} {
		got, err := selectSeries(tc.only)
		if tc.errHas == nil {
			if err != nil || strings.Join(got, ",") != tc.want {
				t.Errorf("selectSeries(%q) = %v, %v; want %s (%s)", tc.only, got, err, tc.want, tc.comment)
			}
			continue
		}
		if err == nil {
			t.Errorf("selectSeries(%q) = %v, want an error (%s)", tc.only, got, tc.comment)
			continue
		}
		for _, sub := range tc.errHas {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("selectSeries(%q) error %q lacks %q", tc.only, err, sub)
			}
		}
	}
}
