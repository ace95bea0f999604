// Command bench is the one benchmark for ufilterd: it spawns the real
// daemon, drives it closed-loop over loopback HTTP with generated,
// verdict-checked traffic, and reports end-to-end metrics (tracing off)
// or per-layer metrics (scrapes, the daemon's opt-in trace field, a
// kill -9 restart and an in-process layer-drive pass). See README.md.
//
// One run, as the benchmark contract invokes it:
//
//	bench --workload apply-durable --seed 3 --seconds 20 --trace 0
//
// Every workload, untraced then traced, written to a file:
//
//	bench -seed 1 -out result.json          (-repeat 5 for quartiles)
//	bench -compare a.json b.json
//	bench -smoke                            (seconds-long end-to-end self-test)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	repeat   int
	compare  bool
	smoke    bool
	bin      string
	work     string
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the contract's JSON line (default: all, to -out)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: write every run and the per-metric summary here as JSON")
	flag.IntVar(&o.repeat, "repeat", 1, "all-workloads mode: repeat with seeds seed..seed+N-1 and report median and quartiles")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments, row by row against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "2 s windows, one set-up, 200-op drive: boots a real child end to end")
	flag.StringVar(&o.bin, "ufilterd", "", "path to the ufilterd binary (required unless -compare)")
	flag.StringVar(&o.work, "work", "", "scratch directory for configs and data dirs (default: beside the binary)")
	flag.StringVar(&o.spans, "spans", "bench/out", "directory for the drive pass's <workload>.spans.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if o.bin == "" {
		return errors.New("-ufilterd is required: the path of the built cmd/ufilterd binary (bench/run.sh builds it)")
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("ufilterd binary: %w", err)
	}
	if o.work == "" {
		o.work = filepath.Dir(o.bin)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	e := &env{bin: o.bin, workDir: o.work, outDir: o.spans, sizes: fullSizes}
	seconds := o.seconds
	if o.smoke {
		e.sizes, seconds = smokeSizes, 2
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}

	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := e.runOne(w, o.seed, seconds, o.trace == 1)
		if err != nil {
			return err
		}
		printResult(res)
		fmt.Println(contractLine(res))
		return nil
	}

	repeat := max(o.repeat, 1)
	file := &resultFile{Seconds: seconds, Seed: o.seed, Repeat: repeat,
		Notes: []string{
			"kill -9 keeps the OS page cache: the restart check covers replay logic, not fsync honesty (internal/walcrash owns that)",
			"sandbox: 2 cores shared by generator and daemon, cheap fsync, reads served from the OS cache",
		}}
	allCorrect := true
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := e.runOne(w, o.seed+int64(r), seconds, traced)
				if err != nil {
					return fmt.Errorf("%s seed %d traced=%v: %w", w.Name, o.seed+int64(r), traced, err)
				}
				printResult(res)
				file.Runs = append(file.Runs, res)
				allCorrect = allCorrect && res.Correct
			}
		}
	}
	file.Summary = summarize(file.Runs)
	printSummary(file.Summary)
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return errors.New("at least one run was not correct (see PROBLEM lines)")
	}
	return nil
}
