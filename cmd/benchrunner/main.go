// Command benchrunner regenerates every table and figure of the
// paper's evaluation (Section 7) and prints them as one markdown
// document: `go run ./cmd/benchrunner > EXPERIMENTS.md`. Absolute
// numbers differ from the paper's Oracle testbed; the shapes (who wins,
// by what factor, where the curves sit) are the reproduction target,
// and each table's caption names the shape its TestFigNShape asserts.
//
// How fast the system is — the daemon, the WAL, shards, the page store
// — is bench/'s question (`bash bench/run.sh`), not this command's.
//
// Usage:
//
//	benchrunner [-mb N] [-sizes 50,100,...] [-iters N] [-only fig13,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// series lists the -only names in the order they print.
var series = []string{"fig12", "fig13", "fig14", "marking", "fig15", "fig16", "fig17"}

func main() {
	mb := flag.Int("mb", 1, "nominal database size (MB) for Figs. 13 and 14")
	sizesFlag := flag.String("sizes", "50,100,150,200,250,300,350,400,450,500",
		"comma-separated database sizes (MB) for Figs. 15-17")
	iters := flag.Int("iters", 20, "operations per size for Figs. 15-17")
	only := flag.String("only", "", "comma-separated subset of "+strings.Join(series, ","))
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	names, err := selectSeries(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	fmt.Println("# EXPERIMENTS — the paper's §7 evaluation, reproduced")
	fmt.Println()
	fmt.Printf("Produced by `%s` with %s on %s/%s.\n",
		strings.Join(append([]string{"go run ./cmd/benchrunner"}, os.Args[1:]...), " "),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println("Timings are this machine's; each caption states the shape the test named in it asserts.")

	for _, name := range names {
		switch name {
		case "fig12":
			printFig12()
		case "fig13":
			printFig13(*mb)
		case "fig14":
			printFig14(*mb)
		case "marking":
			printMarking(*mb)
		case "fig15":
			printFig15(sizes, *iters)
		case "fig16":
			printFig16(sizes, *iters)
		case "fig17":
			printFig17(sizes, *iters)
		}
	}
}

// selectSeries resolves the -only list to the series to run, in print
// order. An empty list selects all; an unknown name is an error, so a
// script asking for a series that no longer exists fails instead of
// printing nothing.
func selectSeries(only string) ([]string, error) {
	if strings.TrimSpace(only) == "" {
		return series, nil
	}
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		want[strings.ToLower(strings.TrimSpace(s))] = true
	}
	var out []string
	for _, name := range series {
		if want[name] {
			out = append(out, name)
			delete(want, name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for s := range want {
			unknown = append(unknown, strconv.Quote(s))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-only: unknown series %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(series, ", "))
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}

// table prints one figure: heading, the asserted shape as its caption,
// and a markdown table.
func table(title, caption string, cols []string, rows [][]string) {
	fmt.Printf("\n## %s\n\n%s\n\n", title, caption)
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	fmt.Println(strings.Repeat("|---", len(cols)) + "|")
	for _, r := range rows {
		fmt.Println("| " + strings.Join(r, " | ") + " |")
	}
}

func printFig12() {
	var rows [][]string
	for _, r := range experiments.Fig12() {
		inc := "yes"
		if !r.Included {
			inc = "no"
		}
		rows = append(rows, []string{r.ID, inc, r.Reason})
	}
	table("Fig. 12 — Evaluation of W3C Use Cases (view ASG expressiveness)",
		"Shape (`TestFig12`): 36 use-case queries, 16 expressible as view ASGs (9 XMP + 2 TREE + 5 R).",
		[]string{"Query", "Included", "Reason"}, rows)
}

func printFig13(mb int) {
	res, err := experiments.Fig13(mb, 5)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range res {
		over := float64(r.WithSTAR-r.Update) / float64(r.Update) * 100
		rows = append(rows, []string{r.Relation, r.Update.String(), r.WithSTAR.String(),
			fmt.Sprintf("%.1f%%", over), strconv.Itoa(r.RowsDeleted)})
	}
	table(fmt.Sprintf("Fig. 13 — Translatable view update over Vsuccess (DBsize=%dMB)", mb),
		"Shape (`TestFig13Shape`): the delete cascade shrinks monotonically down the region → lineitem chain. Update executes a plan compiled before the timer starts (translate + execute); With STAR runs the whole Apply (parse, Steps 1–3, translate, execute).",
		[]string{"Relation", "Update", "With STAR", "Overhead", "RowsDel"}, rows)
}

func printFig14(mb int) {
	res, err := experiments.Fig14(mb, 5)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{r.Relation, r.Blind.String(), r.STAR.String(),
			fmt.Sprintf("%.0fx", float64(r.Blind)/float64(r.STAR)), strconv.Itoa(r.RowsTouched)})
	}
	table(fmt.Sprintf("Fig. 14 — Untranslatable view update over Vfail (DBsize=%dMB)", mb),
		"Shape (`TestFig14Shape`): STAR's static rejection (compiling the update, which stops at the verdict) is at least 10x cheaper than the blind baseline — translate, execute, diff the view against the one the update asks for, roll back — for every relation, and the blind region cascade touches more rows than the lineitem one.",
		[]string{"Relation", "Blind+Rollback", "STAR reject", "Speedup", "RowsTouch"}, rows)
}

func printMarking(mb int) {
	mt, err := experiments.STARMarking(mb)
	if err != nil {
		fatal(err)
	}
	table("§7.2 — STAR marking procedure cost (compile time, per view)",
		"Shape (`TestSTARMarkingCheap`): a one-time, per-view compile cost.",
		[]string{"View", "Build + mark"},
		[][]string{{"Vsuccess", mt.Vsuccess.String()}, {"Vfail", mt.Vfail.String()}})
}

func printFig15(sizes []int, iters int) {
	res, err := experiments.Fig15(sizes, iters)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{strconv.Itoa(r.MB), strconv.Itoa(r.Rows),
			r.Internal.String(), r.External.String(),
			fmt.Sprintf("%.2fx", float64(r.Internal)/float64(r.External)),
			strconv.FormatInt(r.InternalProbes, 10), strconv.FormatInt(r.ExternalProbes, 10)})
	}
	table("Fig. 15 — Internal vs External strategy, insert lineitem into Vlinear",
		fmt.Sprintf("Shape (`TestFig15Shape`): over the same %d inserts the internal strategy's wide view-tuple probe issues more index probes than the external single-table path, at every database size.", iters),
		[]string{"DB(MB)", "rows", "Internal/op", "External/op", "ratio", "Int probes", "Ext probes"}, rows)
}

func printFig16(sizes []int, iters int) {
	res, err := experiments.Fig16(sizes, iters)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{strconv.Itoa(r.MB), r.Hybrid.String(), r.Outside.String(),
			fmt.Sprintf("%.2fx", float64(r.Outside)/float64(r.Hybrid))})
	}
	table("Fig. 16 — Hybrid vs Outside strategy over Vbush (successful updates)",
		"Shape (`TestFig16Shape`): on successful updates hybrid skips the outside strategy's extra probes, so its per-op time is at most 2x outside's (ratio = outside / hybrid).",
		[]string{"DB(MB)", "Hybrid/op", "Outside/op", "ratio"}, rows)
}

func printFig17(sizes []int, iters int) {
	res, err := experiments.Fig17(sizes, iters)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{strconv.Itoa(r.MB),
			r.HybridFail1.String(), r.OutsideFail1.String(), r.HybridFail2.String(), r.OutsideFail2.String(),
			strconv.Itoa(r.HybridStmts), strconv.Itoa(r.OutsideStmts)})
	}
	table("Fig. 17 — Hybrid vs Outside over Vlinear, failed cases",
		"Shape (`TestFig17Shape`): both failed cases complete under both strategies (Fail1 touches no row); the DML columns show outside's early detection suppressing the statements whose probes came back empty.",
		[]string{"DB(MB)", "Hyb-Fail1", "Out-Fail1", "Hyb-Fail2", "Out-Fail2", "Hyb-DML", "Out-DML"}, rows)
}
