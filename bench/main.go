// Command bench is the repository's layered, seeded benchmark: six
// workloads through one pipeline (set-up, compile, check, simulate, serve),
// end-to-end metrics with tracing off, per-layer metrics from a separate
// traced run. See README.md beside this file and BENCHMARK.json at the root.
//
//	bash bench/run.sh --workload single-large --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -all -out ledger.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// record is the file -out writes: who measured, and every workload's
// metrics as {n, median, q1, q3, unit}.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*result `json:"workloads"`
}

type stamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

func newStamp(opt options) stamp {
	s := stamp{GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

func main() {
	var opt options
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, "derives every stimulus seed, the job order and the tenant assignment")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the repeating stages measure")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and trace-<workload>.json")
	all := flag.Bool("all", false, "run every workload, untraced then traced")
	out := flag.String("out", "", "write the record (stamp and every metric with n, median, q1, q3) to this file")
	compare := flag.Bool("compare", false, "compare two record files given as arguments")
	flag.BoolVar(&opt.quick, "quick", false, "test sizes: Rocket-2C at scale 0.1, minimum trial counts")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for traces and the farms' data")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if opt.quick {
		opt.seconds = 0
	}
	// Never more threads than cores: the workloads are sized for two
	// workers in total and an oversubscribed run times the host scheduler.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	var names []string
	switch {
	case *all:
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case *name != "":
		names = []string{*name}
	default:
		fatal(fmt.Errorf("name a -workload, or -all"))
	}
	rec := record{Stamp: newStamp(opt), Workloads: map[string]*result{}}
	var last *result
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
		modes := []bool{*trace != 0}
		if *all {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			o := opt
			o.trace = tr
			res, err := runWorkload(w, o)
			if err != nil {
				fatal(err)
			}
			printResult(n, tr, res)
			if res.tr != nil {
				printSelfTimes(res.tr)
			}
			last = res
			if prev := rec.Workloads[n]; prev != nil {
				res.merge(prev)
			}
			rec.Workloads[n] = res
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, res := range rec.Workloads {
		failed = failed || !res.Correct
	}
	if !*all {
		// The last line of a single run is its result in the driver's form.
		printDriverLine(last)
	}
	if failed {
		os.Exit(1)
	}
}

// merge folds the untraced run of the same workload into the traced one,
// so a record holds both metric sets per workload.
func (res *result) merge(prev *result) {
	for k, v := range prev.Metrics {
		res.Metrics[k] = v
	}
	res.Correct = res.Correct && prev.Correct
	res.Attempted += prev.Attempted
	res.Failed += prev.Failed
	res.Problems = append(prev.Problems, res.Problems...)
	res.Notes = append(prev.Notes, res.Notes...)
}

func printDriverLine(res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for k, s := range res.Metrics {
		line.Metrics[k] = value{s.Median, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
