package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// coverageFloor is the share of the serial campaign's wall time the direct
// drive's layer spans must account for on the compute-bound workloads: an
// unexplained gap there is a bug in the budget. matrix-dense gets a little
// room because at Parallelism 1 every frame of it waits out a loopback-TCP
// round trip between parked goroutines, wall time that is no layer's.
var coverageFloor = map[string]float64{
	figSweep.name:    0.90,
	matrixDense.name: 0.85,
}

// childRun is one run of one workload in a process of its own, so that
// peak memory and telemetry start clean.
type childRun struct {
	info   jsonInfo
	result jsonResult
}

// childCommand is this program run again for one workload.
func childCommand(name string, trace bool, o runOpts) *exec.Cmd {
	args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-tmp", o.tmp}
	if trace {
		args = append(args, "-trace")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans+"."+name)
	}
	cmd := exec.Command(o.exe, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

func runChild(name string, trace bool, o runOpts) (*childRun, error) {
	cmd := childCommand(name, trace, o)
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", strings.Join(cmd.Args, " "), err, stdout)
	}
	var run childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "info "); ok {
			if err := json.Unmarshal([]byte(rest), &run.info); err != nil {
				return nil, fmt.Errorf("%s: info line: %w", name, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &run.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	if !run.result.Correct {
		return nil, fmt.Errorf("%s: output checks failed", name)
	}
	return &run, nil
}

// runRepeat runs two full sets back to back on one seed — every workload
// untraced and traced — and checks that they agree: each end-to-end metric
// within its bound, the exact counts and the record digest identical, and
// the traced coverage above its floor both times.
func runRepeat(names []string, o runOpts) error {
	type set struct{ e2e, traced map[string]*childRun }
	var sets [2]set
	for i := range sets {
		sets[i] = set{map[string]*childRun{}, map[string]*childRun{}}
		for _, name := range names {
			for _, trace := range []bool{false, true} {
				fmt.Printf("set %d: %s traced=%v\n", i+1, name, trace)
				run, err := runChild(name, trace, o)
				if err != nil {
					return err
				}
				if trace {
					sets[i].traced[name] = run
				} else {
					sets[i].e2e[name] = run
				}
			}
		}
	}

	var problems []string
	fmt.Printf("\n%-13s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, name := range names {
		a, b := sets[0].e2e[name], sets[1].e2e[name]
		for _, m := range endToEndMetrics {
			x, y := a.result.Metrics[m.name].Value, b.result.Metrics[m.name].Value
			diff := (y - x) / x
			verdict := ""
			if math.Abs(diff) > m.bound {
				verdict = "  OUTSIDE"
				problems = append(problems, fmt.Sprintf("%s %s differs by %+.1f%%, bound %.0f%%", name, m.name, 100*diff, 100*m.bound))
			}
			fmt.Printf("%-13s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", name, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
		if a.info != b.info {
			problems = append(problems, fmt.Sprintf("%s: exact counts differ: %+v vs %+v", name, a.info, b.info))
		}
		fmt.Printf("%-13s sim_frames %d  episodes %d  records_sha256 %.16s  identical=%v\n",
			name, a.info.SimFrames, a.info.Episodes, a.info.Digest, a.info == b.info)
	}
	for name, floor := range coverageFloor {
		for i := range sets {
			run, ok := sets[i].traced[name]
			if !ok {
				continue
			}
			cov := run.result.Metrics["campaign.coverage"].Value
			fmt.Printf("%-13s campaign.coverage set %d: %.4f (floor %.2f)\n", name, i+1, cov, floor)
			if cov < floor {
				problems = append(problems, fmt.Sprintf("%s campaign.coverage %.4f below %.2f in set %d", name, cov, floor, i+1))
			}
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	fmt.Println("repeat: the two sets agree")
	return nil
}
