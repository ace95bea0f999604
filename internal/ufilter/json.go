package ufilter

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file pins down the wire spelling of every verdict. Each enum has
// one name table that String, MarshalText and UnmarshalText share, and
// Result and BatchResult append their JSON by hand (AppendJSON) in the
// field order and with the omitempty rules of their tags, so the CLI's
// -json output, the ufilterd server's responses and test assertions all
// agree on (and round-trip through) the same bytes.

var stepNames = []string{
	StepNone:       "none",
	StepValidation: "validation",
	StepSTAR:       "star",
	StepData:       "data",
}

var outcomeNames = []string{
	OutcomeInvalid:        "invalid",
	OutcomeUntranslatable: "untranslatable",
	OutcomeConditional:    "conditionally translatable",
	OutcomeUnconditional:  "unconditionally translatable",
}

var conditionNames = []string{
	CondNone:             "none",
	CondMinimization:     "translation minimization",
	CondDupConsistency:   "duplication consistency",
	CondSharedPartsExist: "shared parts must pre-exist",
}

var strategyNames = []string{
	StrategyHybrid:   "hybrid",
	StrategyOutside:  "outside",
	StrategyInternal: "internal",
}

// enumName returns names[i], or "typ(i)" for a value outside the table.
func enumName(names []string, i int, typ string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", typ, i)
}

// enumValue is enumName's inverse over the table's names.
func enumValue(names []string, text, kind string) (int, error) {
	for i, n := range names {
		if n == text {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", kind, text)
}

// String names the pipeline step.
func (s Step) String() string { return enumName(stepNames, int(s), "Step") }

// MarshalText encodes the step as its String form.
func (s Step) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a step from its String form.
func (s *Step) UnmarshalText(text []byte) error {
	v, err := enumValue(stepNames, string(text), "step")
	if err == nil {
		*s = Step(v)
	}
	return err
}

// String names the outcome.
func (o Outcome) String() string { return enumName(outcomeNames, int(o), "Outcome") }

// MarshalText encodes the outcome as its String form.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText decodes an outcome from its String form.
func (o *Outcome) UnmarshalText(text []byte) error {
	v, err := enumValue(outcomeNames, string(text), "outcome")
	if err == nil {
		*o = Outcome(v)
	}
	return err
}

// String names the condition.
func (c Condition) String() string { return enumName(conditionNames, int(c), "Condition") }

// MarshalText encodes the condition as its String form.
func (c Condition) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a condition from its String form.
func (c *Condition) UnmarshalText(text []byte) error {
	v, err := enumValue(conditionNames, string(text), "condition")
	if err == nil {
		*c = Condition(v)
	}
	return err
}

// String names the strategy.
func (s Strategy) String() string { return enumName(strategyNames, int(s), "Strategy") }

// MarshalText encodes the strategy as its String form.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a strategy as ParseStrategy does.
func (s *Strategy) UnmarshalText(text []byte) error {
	v, err := ParseStrategy(string(text))
	if err == nil {
		*s = v
	}
	return err
}

// ParseStrategy maps a strategy name (as printed by Strategy.String) to
// its value, case-insensitively. An empty name selects StrategyHybrid.
func ParseStrategy(name string) (Strategy, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return StrategyHybrid, nil
	}
	v, err := enumValue(strategyNames, name, "strategy")
	if err != nil {
		return StrategyHybrid, fmt.Errorf("%w (want hybrid, outside or internal)", err)
	}
	return Strategy(v), nil
}

// String renders the verdict as "<outcome>[ (conditions: a, b)][: reason]".
func (v StarVerdict) String() string {
	var b strings.Builder
	b.WriteString(v.Outcome.String())
	if len(v.Conditions) > 0 {
		names := make([]string, len(v.Conditions))
		for i, c := range v.Conditions {
			names[i] = c.String()
		}
		fmt.Fprintf(&b, " (conditions: %s)", strings.Join(names, ", "))
	}
	if v.Reason != "" {
		b.WriteString(": ")
		b.WriteString(v.Reason)
	}
	return b.String()
}

// AppendJSON appends the result's JSON object to dst: the fields in tag
// order, the omitempty ones left out when empty, and strings escaped as
// encoding/json escapes them with HTML escaping off.
func (r *Result) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendBool(dst, r.Accepted)
	dst = append(dst, `,"rejected_at":`...)
	dst = appendString(dst, r.RejectedAt.String())
	dst = append(dst, `,"outcome":`...)
	dst = appendString(dst, r.Outcome.String())
	if len(r.Conditions) > 0 {
		dst = append(dst, `,"conditions":[`...)
		for i, c := range r.Conditions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c.String())
		}
		dst = append(dst, ']')
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, r.Reason)
	}
	dst = appendStrings(dst, `,"probes":`, r.Probes)
	dst = appendStrings(dst, `,"sql":`, r.SQL)
	dst = append(dst, `,"rows_affected":`...)
	dst = strconv.AppendInt(dst, int64(r.RowsAffected), 10)
	dst = appendStrings(dst, `,"warnings":`, r.Warnings)
	return append(dst, '}')
}

// MarshalJSON encodes the result through AppendJSON.
func (r Result) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }

// AppendJSON appends a per-update batch verdict to dst as
// {"index","result","error"}; the error, if any, travels as its message.
func (br BatchResult) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(br.Index), 10)
	if br.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = br.Result.AppendJSON(dst)
	}
	if br.Err != nil {
		if msg := br.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, msg)
		}
	}
	return append(dst, '}')
}

// MarshalJSON encodes a per-update batch verdict through AppendJSON.
func (br BatchResult) MarshalJSON() ([]byte, error) { return br.AppendJSON(nil), nil }

// UnmarshalJSON decodes a per-update batch verdict; a non-empty error
// string becomes an opaque error value.
func (br *BatchResult) UnmarshalJSON(data []byte) error {
	var w struct {
		Index  int     `json:"index"`
		Result *Result `json:"result"`
		Error  string  `json:"error"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	br.Index = w.Index
	br.Result = w.Result
	br.Err = nil
	if w.Error != "" {
		br.Err = fmt.Errorf("%s", w.Error)
	}
	return nil
}

// appendStrings appends key and the list as a JSON array, or nothing
// for an empty list (omitempty).
func appendStrings(dst []byte, key string, list []string) []byte {
	if len(list) == 0 {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string exactly as encoding/json writes
// it with HTML escaping off: \" \\ \b \f \n \r \t, other control bytes as
// \u00XX, each invalid UTF-8 byte as an escaped U+FFFD, and U+2028 and
// U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			case c == 0x2028 || c == 0x2029:
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
