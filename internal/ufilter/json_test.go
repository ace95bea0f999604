package ufilter

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bookdb"
)

// TestEnumJSONRoundTrip: every verdict enum marshals to its String
// spelling and unmarshals back to the same value.
func TestEnumJSONRoundTrip(t *testing.T) {
	for _, s := range []Step{StepNone, StepValidation, StepSTAR, StepData} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%q", s.String()); string(data) != want {
			t.Errorf("step %d marshals to %s, want %s", s, data, want)
		}
		var back Step
		if err := json.Unmarshal(data, &back); err != nil || back != s {
			t.Errorf("step round trip: %v, %v != %v", err, back, s)
		}
	}
	for _, o := range []Outcome{OutcomeInvalid, OutcomeUntranslatable, OutcomeConditional, OutcomeUnconditional} {
		data, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%q", o.String()); string(data) != want {
			t.Errorf("outcome %d marshals to %s, want %s", o, data, want)
		}
		var back Outcome
		if err := json.Unmarshal(data, &back); err != nil || back != o {
			t.Errorf("outcome round trip: %v, %v != %v", err, back, o)
		}
	}
	for _, c := range []Condition{CondNone, CondMinimization, CondDupConsistency, CondSharedPartsExist} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Condition
		if err := json.Unmarshal(data, &back); err != nil || back != c {
			t.Errorf("condition round trip: %v, %v != %v", err, back, c)
		}
	}
	for _, s := range []Strategy{StrategyHybrid, StrategyOutside, StrategyInternal} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Strategy
		if err := json.Unmarshal(data, &back); err != nil || back != s {
			t.Errorf("strategy round trip: %v, %v != %v", err, back, s)
		}
	}
	var bad Outcome
	if err := json.Unmarshal([]byte(`"definitely not an outcome"`), &bad); err == nil {
		t.Error("unknown outcome should fail to unmarshal")
	}
}

// TestParseStrategy: names, case folding and the empty default.
func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"":         StrategyHybrid,
		"hybrid":   StrategyHybrid,
		"Outside":  StrategyOutside,
		"INTERNAL": StrategyInternal,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("unknown strategy should error")
	}
}

// TestResultJSON: a real rejection serializes with stable field names
// and enum spellings, and the parse tree stays off the wire.
func TestResultJSON(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	res, err := f.Check(context.Background(), bookdb.U2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`"accepted":false`,
		`"rejected_at":"star"`,
		`"outcome":"untranslatable"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("result JSON missing %s: %s", want, text)
		}
	}
	if strings.Contains(text, "Update") || strings.Contains(text, "xqparse") {
		t.Errorf("parse tree leaked into JSON: %s", text)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Accepted != res.Accepted || back.Outcome != res.Outcome || back.RejectedAt != res.RejectedAt || back.Reason != res.Reason {
		t.Errorf("round trip mismatch: %+v vs %+v", back, res)
	}
}

// TestStarVerdictString: the shared rendering of verdicts.
func TestStarVerdictString(t *testing.T) {
	v := StarVerdict{
		Outcome:    OutcomeConditional,
		Conditions: []Condition{CondMinimization, CondDupConsistency},
		Reason:     "node is dirty",
	}
	want := "conditionally translatable (conditions: translation minimization, duplication consistency): node is dirty"
	if got := v.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back StarVerdict
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Outcome != v.Outcome || len(back.Conditions) != 2 || back.Reason != v.Reason {
		t.Errorf("verdict round trip: %+v", back)
	}
}

// TestBatchResultJSON: errors travel as strings, results in order.
func TestBatchResultJSON(t *testing.T) {
	f := newFilter(t, StrategyHybrid)
	out := f.CheckBatch([]string{bookdb.U12, "garbage"}, 2)
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back []BatchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d results", len(back))
	}
	if back[0].Err != nil || back[0].Result == nil || !back[0].Result.Accepted {
		t.Errorf("u12: %+v", back[0])
	}
	if back[1].Err == nil || back[1].Result != nil {
		t.Errorf("garbage should round-trip its error: %+v", back[1])
	}
}
