package obs

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// A statistic is declared once, by tags on its field of a statistics
// struct (relational.DBStats, the server's ViewStats, ...):
//
//	Fsyncs int64 `json:"fsyncs_total" stat:"wal_fsyncs_total,counter,sum" help:"…"`
//
// stat is "family,kind,fold[,shard]": the /metrics family without the
// exporter's prefix (empty: not exported), its kind (counter, gauge or
// histogram), how FoldStats folds parts into a whole (sum or max; a
// histogram's sum merges its buckets) and, with "shard", that the family
// is also exported per shard. Kind "label" ("shard,label") makes the
// field a label of its series instead. A field whose json name ends in
// _ns holds nanoseconds and exports as seconds. An untagged struct field
// is descended into: its own tagged fields are the parent's too.
type statField struct {
	index        []int
	family, kind string
	help         string
	max, shard   bool
	seconds      bool
}

var statFieldCache sync.Map // reflect.Type → []statField

// statFields parses t's stat tags, once per type.
func statFields(t reflect.Type) []statField {
	if cached, ok := statFieldCache.Load(t); ok {
		return cached.([]statField)
	}
	var out []statField
	for _, f := range reflect.VisibleFields(t) {
		tag, ok := f.Tag.Lookup("stat")
		if !ok && !f.Anonymous && f.IsExported() && f.Type.Kind() == reflect.Struct {
			for _, sub := range statFields(f.Type) {
				sub.index = append(slices.Clone(f.Index), sub.index...)
				out = append(out, sub)
			}
		}
		if !ok || f.Anonymous {
			continue
		}
		parts := strings.Split(tag, ",")
		jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		out = append(out, statField{
			index: f.Index, family: parts[0], kind: parts[1], help: f.Tag.Get("help"),
			max: strings.Contains(tag, ",max"), shard: strings.HasSuffix(tag, ",shard"),
			seconds: strings.HasSuffix(jsonName, "_ns"),
		})
	}
	cached, _ := statFieldCache.LoadOrStore(t, out)
	return cached.([]statField)
}

// FoldStats folds parts field by field as their stat tags say. A shard
// group's statistics are the fold of its shards' and its log's own; a
// snapshot vector's version statistics are the fold of its shards'.
func FoldStats[T any](parts ...T) T {
	var out T
	dst := reflect.ValueOf(&out).Elem()
	for _, f := range statFields(dst.Type()) {
		d := dst.FieldByIndex(f.index)
		for i := range parts {
			s := reflect.ValueOf(&parts[i]).Elem().FieldByIndex(f.index)
			switch {
			case f.kind == "label":
			case d.CanInt() && f.max:
				d.SetInt(max(d.Int(), s.Int()))
			case d.CanInt():
				d.SetInt(d.Int() + s.Int())
			case d.CanUint() && f.max:
				d.SetUint(max(d.Uint(), s.Uint()))
			case d.CanUint():
				d.SetUint(d.Uint() + s.Uint())
			case d.CanFloat() && f.max:
				d.SetFloat(max(d.Float(), s.Float()))
			case d.CanFloat():
				d.SetFloat(d.Float() + s.Float())
			default: // histograms of one shape: merging cannot fail
				_ = d.Addr().Interface().(*Snapshot).Merge(s.Interface().(Snapshot))
			}
		}
	}
	return out
}

// StatSeries is one sample set for WriteStats; Labels are the rendered
// label pairs without braces (view="book").
type StatSeries[T any] struct {
	Labels string
	Stats  T
}

// WriteStats renders the /metrics families T's stat tags declare, named
// prefix+family with one sample per series, in the Prometheus text
// format. perShard keeps only the families flagged "shard"; label fields
// extend each series' labels (shard="2").
func WriteStats[T any](w io.Writer, prefix string, perShard bool, series []StatSeries[T]) {
	fields := statFields(reflect.TypeFor[T]())
	values, labels := make([]reflect.Value, len(series)), make([]string, len(series))
	for i, s := range series {
		values[i], labels[i] = reflect.ValueOf(s.Stats), s.Labels
		for _, f := range fields {
			if f.kind == "label" {
				labels[i] += fmt.Sprintf(",%s=\"%v\"", f.family, values[i].FieldByIndex(f.index))
			}
		}
	}
	for _, f := range fields {
		if len(series) == 0 || f.family == "" || f.kind == "label" || perShard && !f.shard {
			continue
		}
		name := prefix + f.family
		if f.kind == "histogram" {
			WritePromHeader(w, name, f.help)
		} else {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind)
		}
		for i, v := range values {
			v, x := v.FieldByIndex(f.index), 0.0
			switch {
			case v.CanInt():
				x = float64(v.Int())
			case v.CanUint():
				x = float64(v.Uint())
			case v.CanFloat():
				x = v.Float()
			default:
				WriteProm(w, name, labels[i], v.Interface().(Snapshot))
				continue
			}
			if f.seconds {
				x /= 1e9
			}
			fmt.Fprintf(w, "%s{%s} %g\n", name, labels[i], x)
		}
	}
}
