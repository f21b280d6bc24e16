// Command avfi runs AVFI fault-injection campaigns, serves simulator
// workers and the campaign service, merges record logs, and regenerates
// the paper's figures and ablations. Each command has its own flags
// (`avfi COMMAND -h` lists them); flags precede positional arguments.
//
//	avfi run -injectors noinject,gaussian,outputdelay -missions 6 -reps 2
//	avfi run -injectors taxonomy,class:comm -matrix -activations 0,30 -aeb both
//	avfi run -matrix -weathers clear,rain,fog -adaptive -policy ucb -budget 256
//	avfi run -backends host1:7070,host2:7070 -retries 3 -stream-records logs/
//	avfi run -resume logs/ -stream-records logs/ -backends host1:7070,host2:7070
//	avfi serve -join http://host:8080 -status-addr :6061 0.0.0.0:7070
//	avfi service -parallel 4 :8080
//	avfi records -format binary -o merged.bin run1/ run2/ extra.bin
//	avfi figures -fig 4 -frames 0,3,6,12,24,45
//	avfi ablate -sweep gaussian
//	avfi list
//
// run's injector, grid, matrix and adaptive flags fill an
// avfi.CampaignSpec, lowered by CampaignSpec.Lower exactly as a POST
// /campaigns body is; a flag of a mode that is off is an error. Episodes
// ride a pool of persistent session-multiplexed engines (-engines
// in-process, or one per -backends worker) with bounded retry and dead
// backend replacement, bit-identical at any pool size for the same seed.
// -stream-records writes the binary record log (a directory: one
// records-<i>.bin shard per engine slot, merged by `avfi records`);
// without -records-csv or -json only a fixed-size digest per episode stays
// in memory. -resume skips the episodes of an earlier log or shard
// directory, appending to it when it is also the -stream-records path.
//
// Without -agent, the driving agent is trained in-process from the oracle
// autopilot first (minutes); save one with avfi-train to skip that.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"github.com/avfi/avfi"
)

const usage = `usage: avfi COMMAND [flags] [args]

commands:
  run            run one fault-injection campaign
  serve ADDR     serve simulator episodes to remote campaigns
  service ADDR   run the long-lived campaign control plane
  records LOG... merge binary record logs (export JSONL or a binary log)
  figures        regenerate the paper's Figures 2-4
  ablate         run the parameter-sweep ablations
  list           list registered injectors

'avfi COMMAND -h' lists a command's flags.
`

func main() {
	// SIGINT/SIGTERM cancel a campaign (in-flight episodes finish, the
	// rest is abandoned — resumable from the streamed log) and gracefully
	// stop a worker or the service.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "avfi: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches args[0] to its command.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return errors.New("no command given")
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "run":
		return runCampaign(ctx, args, stdout, stderr)
	case "serve":
		return serve(ctx, args, stderr)
	case "service":
		return service(ctx, args, stderr)
	case "records":
		return records(args, stdout, stderr)
	case "figures":
		return figures(args, stdout, stderr)
	case "ablate":
		return ablate(args, stdout, stderr)
	case "list":
		if err := parseFlags(flagSet("list", stderr), args, 0); err != nil {
			return err
		}
		for _, name := range avfi.RegisteredInjectors() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return nil
	default:
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// flagSet returns an empty flag set for one command; parse errors and -h
// print to stderr and come back as errors.
func flagSet(cmd string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses a command's arguments and checks the count of
// positional ones left after the flags: exactly nargs, or at least one
// when nargs is negative.
func parseFlags(fs *flag.FlagSet, args []string, nargs int) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case nargs < 0 && fs.NArg() == 0:
		return fmt.Errorf("%s: missing arguments", fs.Name())
	case nargs >= 0 && fs.NArg() != nargs:
		return fmt.Errorf("%s: want %d argument(s) after the flags, got %q", fs.Name(), nargs, fs.Args())
	}
	return nil
}

// splitList splits a comma-separated flag value into trimmed entries.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// parseInts parses a comma-separated list of non-negative integers,
// naming the flag and the offending value on error.
func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-%s: bad value %q (want non-negative integers, comma-separated)", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// agentSource loads the agent saved at path, or trains the default one
// in-process when path is empty.
func agentSource(path string) (avfi.AgentSource, error) {
	if path == "" {
		spec := avfi.DefaultPretrainSpec()
		return avfi.AgentSource{Pretrain: &spec}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return avfi.AgentSource{}, err
	}
	defer f.Close()
	a, err := avfi.LoadAgent(f)
	if err != nil {
		return avfi.AgentSource{}, err
	}
	return avfi.AgentSource{Agent: a}, nil
}

// sameFile reports whether two paths name the same underlying file —
// spelled identically or not (relative vs absolute, symlinks). A path
// that doesn't stat (e.g. the stream file doesn't exist yet) is not the
// same file as anything.
func sameFile(a, b string) bool {
	ai, err := os.Stat(a)
	if err != nil {
		return false
	}
	bi, err := os.Stat(b)
	if err != nil {
		return false
	}
	return os.SameFile(ai, bi)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
