// Command bench is the repository's benchmark: four fixed workloads run as
// closed loops from one process, every metric printed by name with its
// unit, the outputs verified, and — with -trace — a per-layer frame budget
// timed around calls into each layer's public functions from the
// benchmark's own files. README.md in this directory defines the
// workloads and metrics and says how to claim a gain with them.
//
//	go run . -workload all              # from this directory
//	go run . -workload tiny-fleet -seed 2 -trace
//	go run . -repeat                    # two full sets, compared
//
// The end-to-end path (everything but layers.go) drives the system through
// the public github.com/avfi/avfi facade only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// joinTraceValue lets -trace be given both as a bare switch and with a
// separate 0/1 value (the form benchmark drivers pass).
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && slices.Contains([]string{"0", "1", "true", "false"}, args[i+1]) {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "workload seed: campaign seed, or the trained agent's init and batch-order seed")
		seconds  = fs.Float64("seconds", runSeconds, "how long to measure: rounds repeat until this much measured time")
		trace    = fs.Bool("trace", false, "run the traced passes and print the per-layer metrics instead of the end-to-end ones")
		smoke    = fs.Bool("smoke", false, "one round on a shrunken grid: exercises every code path and output check, measures nothing worth keeping")
		repeat   = fs.Bool("repeat", false, "run every workload twice, traced and untraced, and check the two sets agree within the metrics' bounds")
		tmp      = fs.String("tmp", "", "directory for record logs (default: the system temporary directory)")
		spans    = fs.String("spans", "", "with -trace: write the direct drive's spans to this file (tab-separated)")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	names := workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s, all)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	dir, err := os.MkdirTemp(*tmp, "avfi-bench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, tmp: dir, nproc: runtime.GOMAXPROCS(0), spans: *spans, exe: exe}

	if *repeat {
		if err := runRepeat(names, o); err != nil {
			fmt.Fprintf(os.Stderr, "bench: repeat: %v\n", err)
			return 1
		}
		return 0
	}
	if len(names) > 1 {
		// One process per workload, so that peak memory and telemetry
		// start clean for each, as they do under a benchmark driver.
		code := 0
		for _, name := range names {
			cmd := childCommand(name, *trace, o)
			cmd.Stdout = os.Stdout
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				code = 1
			}
		}
		return code
	}
	out, err := runWorkload(names[0], *trace, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printOutcome(out, *trace, o)
	if len(out.failures) > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload once, traced or not.
func runWorkload(name string, trace bool, o runOpts) (*outcome, error) {
	if name == train.name {
		if trace {
			return traceTrain(train, o)
		}
		return runTrain(train, o)
	}
	for _, s := range campaignShapes {
		if s.name == name {
			if trace {
				return traceCampaign(s, o)
			}
			return runCampaign(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jsonMetric and jsonResult are the machine-readable last line of a run.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonInfo is the exact-count line before it: on one commit and seed it
// repeats exactly (-repeat checks that).
type jsonInfo struct {
	Workload  string `json:"workload"`
	SimFrames int    `json:"sim_frames"`
	Episodes  int    `json:"episodes"`
	Digest    string `json:"records_sha256"`
}

func (o *outcome) result() jsonResult {
	res := jsonResult{Correct: len(o.failures) == 0, Attempted: o.attempted, Metrics: make(map[string]jsonMetric)}
	if !res.Correct {
		res.Failed = o.attempted
	}
	for _, m := range o.metrics {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res
}

func printOutcome(out *outcome, trace bool, o runOpts) {
	mode := "tracing off"
	if trace {
		mode = "traced"
	}
	if o.smoke {
		mode += ", SMOKE (shrunken grid: not a measurement)"
	}
	fmt.Printf("== %s  seed %d  %s\n", out.workload, o.seed, mode)
	for _, m := range out.metrics {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range out.notes {
		fmt.Printf("  %s\n", n)
	}
	res := out.result()
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	info, _ := json.Marshal(jsonInfo{out.workload, out.simFrames, out.episodes, out.digest})
	fmt.Printf("info %s\n", info)
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}
