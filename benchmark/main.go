// Command benchmark is the one benchmark of the serving stack (ISSUE 11): four
// closed-loop workloads against in-process fleets built exactly as cmd/salsrv
// builds them, end-to-end metrics with tracing off, and a traced run whose
// spans — recorded from this package's own wrappers, outside-in — give the
// per-layer numbers. BENCHMARK.json at the repository root declares it; see
// README.md for every metric's definition.
//
// Usage:
//
//	go run ./benchmark [-workload NAME] [-seed S] [-seconds N] [-trace 0|1]
//	                   [-seeds N] [-out FILE] [-spans FILE] [-quick]
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -manifest
//
// Without -workload every workload runs, each in a fresh child process so
// heap, BCH tables and VmHWM do not leak between them. With -workload the
// last line of standard output is the result object of the driver's
// contract; the exit code is non-zero on any correctness violation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// outFile is what -out writes and -compare reads: a set of runs.
type outFile struct {
	Env  envInfo  `json:"env"`
	Runs []result `json:"runs"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	var (
		workload = flag.String("workload", "", "run this workload in this process (default: all, one child process each)")
		seed     = flag.Uint64("seed", 1, "workload seed: op stream and payloads are a pure function of it")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = also run the traced passes and report the per-layer metrics")
		seeds    = flag.Int("seeds", 1, "without -workload: run every workload on this many consecutive seeds")
		out      = flag.String("out", "", "write every run's full result to this JSON file")
		spans    = flag.String("spans", "", "with -workload -trace 1: dump the net pass's spans to this JSONL file")
		dataRoot = flag.String("data-root", ".bench_data", "directory durable_put creates its data dirs under (a real filesystem, not tmpfs)")
		quick    = flag.Bool("quick", false, "smoke-test sizes: fewer keys, token warm-up, short traced passes")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()
	switch {
	case *mani:
		raw, err := manifest(defaultSeconds)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(raw)
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two files: -compare A.json B.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		sp, ok := findSpec(*workload)
		if !ok {
			log.Fatalf("unknown workload %q", *workload)
		}
		if *quick {
			sp = sp.quick()
		}
		o := runOpts{seed: *seed, window: time.Duration(*seconds) * time.Second, dataRoot: *dataRoot, quick: *quick}
		res, err := runWorkload(sp, o, *trace != 0, *spans)
		if err != nil {
			log.Fatal(err)
		}
		env := readEnv(*dataRoot)
		if *out != "" {
			if err := writeOut(*out, outFile{Env: env, Runs: []result{*res}}); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("env: %+v\n", env)
		printResult(res, *trace != 0)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seeds, *seconds, *trace, *dataRoot, *quick, *out); err != nil {
			log.Fatal(err)
		}
	}
}

// runWorkload runs one workload in this process: the untraced end-to-end
// run, then with trace the traced passes.
func runWorkload(sp spec, o runOpts, trace bool, spansPath string) (*result, error) {
	if sp.durable {
		if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
			return nil, err
		}
		if err := refuseRAMFS(o.dataRoot); err != nil {
			return nil, err
		}
	}
	res := &result{Workload: sp.name, Seed: o.seed, Samples: map[string]int{}}
	lr, err := runEndToEnd(sp, o, res)
	if err != nil {
		return nil, err
	}
	if trace {
		layers := newMetricSet(perLayer)
		procMetrics(lr, layers)
		if err := runTraced(sp, o, res, layers, spansPath); err != nil {
			return nil, err
		}
		res.PerLayer = layers.values
	}
	if res.Failed > 0 {
		res.violate("%d of %d ops failed or returned wrong bytes", res.Failed, res.Attempted)
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// printResult prints every metric by name with its unit, then the driver's
// result line: end-to-end metrics for an untraced run, per-layer metrics for
// a traced one. A per-layer metric that does not apply to the workload is
// absent from the table above the line and 0 in it, because the contract
// wants every declared name.
func printResult(res *result, trace bool) {
	fmt.Printf("== %s seed=%d: %d ops attempted, %d failed, samples get=%d put=%d ==\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Samples["get"], res.Samples["put"])
	printMetrics(endToEnd, res.EndToEnd)
	printMetrics(perLayer, res.PerLayer)
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.EndToEnd}
	if trace {
		line.Metrics = map[string]metricValue{}
		for _, d := range perLayer {
			line.Metrics[d.name] = metricValue{Value: res.PerLayer[d.name].Value, Unit: d.unit}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", raw)
}

func printMetrics(defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("  %-40s %s %s\n", d.name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit)
		}
	}
}

// runAll runs every workload on every seed, each run a child process of this
// same binary, and gathers their results.
func runAll(seed uint64, seeds, seconds, trace int, dataRoot string, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Children hand their full results back through a file under the data
	// root, so the benchmark writes nowhere outside its checkout.
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	all := outFile{Env: readEnv(dataRoot)}
	failed := false
	for _, sp := range workloads {
		for s := seed; s < seed+uint64(seeds); s++ {
			tmp, err := os.CreateTemp(dataRoot, "run-*.json")
			if err != nil {
				return err
			}
			tmp.Close()
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-data-root", dataRoot, "-out", tmp.Name()}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = true
				fmt.Printf("%s seed %d: %v\n", sp.name, s, err)
			}
			var one outFile
			raw, err := os.ReadFile(tmp.Name())
			os.Remove(tmp.Name())
			if err == nil && len(bytes.TrimSpace(raw)) > 0 {
				if err := json.Unmarshal(raw, &one); err != nil {
					return err
				}
				all.Runs = append(all.Runs, one.Runs...)
			}
		}
	}
	if out != "" {
		if err := writeOut(out, all); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run failed")
	}
	return nil
}

func writeOut(path string, f outFile) error {
	sort.SliceStable(f.Runs, func(a, b int) bool { return f.Runs[a].Workload < f.Runs[b].Workload })
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
