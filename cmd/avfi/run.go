package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/avfi/avfi"
)

// runCampaign is `avfi run`: one campaign, its reports table on stdout.
func runCampaign(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flagSet("run", stderr)
	var (
		injectors  = fs.String("injectors", "noinject,gaussian,saltpepper,solidocc,transpocc,waterdrop", "comma-separated injector names, 'class:FAMILY' selectors, 'taxonomy' (one per family), or 'all'")
		missions   = fs.Int("missions", 6, "number of navigation missions")
		reps       = fs.Int("reps", 2, "repetitions (seeds) per mission and injector")
		npcs       = fs.Int("npcs", 0, "NPC vehicles per episode (flat grid)")
		peds       = fs.Int("peds", 0, "pedestrians per episode (flat grid)")
		weather    = fs.String("weather", "clear", "weather (flat grid): clear|rain|fog")
		matrix     = fs.Bool("matrix", false, "sweep a scenario matrix instead of the flat injector grid")
		weathers   = fs.String("weathers", "clear", "matrix weather levels, comma-separated")
		densities  = fs.String("densities", "0x0", "matrix traffic densities as NPCSxPEDS pairs, e.g. 0x0,8x4")
		aebMode    = fs.String("aeb", "off", "matrix AEB levels: off|on|both")
		activation = fs.String("activations", "0", "matrix fault-activation frames, comma-separated")
		seed       = fs.Uint64("seed", 1, "campaign seed (results are a pure function of it)")
		agentPath  = fs.String("agent", "", "load a trained agent from this file (default: train in-process)")
		recordsCSV = fs.String("records-csv", "", "write per-episode records CSV here")
		reportsCSV = fs.String("reports-csv", "", "write per-injector reports CSV here")
		jsonPath   = fs.String("json", "", "write the full result set as JSON here")
		parallel   = fs.Int("parallel", 0, "concurrent episodes (0 = NumCPU)")
		retries    = fs.Int("retries", 0, "per-episode retries after transient engine failures")
		streamPath = fs.String("stream-records", "", "stream per-episode records to this binary record log as they complete (a directory: one records-<i>.bin shard per engine slot); without -records-csv/-json, records are not retained in memory")
		adaptiveOn = fs.Bool("adaptive", false, "risk-driven episode allocation instead of the exhaustive sweep")
		policyName = fs.String("policy", "ucb", "adaptive allocation policy: uniform|halving|ucb")
		budget     = fs.Int("budget", 0, "adaptive total episode budget (0 = the full scenario grid)")
		roundSize  = fs.Int("round", 0, "adaptive episodes per plan/observe/reallocate round (0 = auto)")
		resumePath = fs.String("resume", "", "resume from this binary episode log (or shard directory): recorded episodes are not re-run")
		backends   = fs.String("backends", "", "comma-separated remote worker addresses; the campaign dials one engine per worker instead of its in-process engine")
		statusAddr = fs.String("status-addr", "", "serve live observability on this address (e.g. :6060): /metrics, /statusz, /healthz, /debug/pprof")
		verbose    = fs.Bool("v", false, "verbose logging (episode retries, engine lifecycle); default logs warnings only")
		slowEp     = fs.Duration("slow-episode", 2*time.Minute, "log a warning for episodes slower than this (0 disables)")
	)
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
	if err := checkModeFlags(fs, *matrix, *adaptiveOn); err != nil {
		return err
	}
	backendList, err := parseBackends(*backends)
	if err != nil {
		return err
	}

	// The campaign description goes through the service's lowering, so
	// flag typos fail here in milliseconds, not after minutes of training.
	spec := avfi.CampaignSpec{
		Injectors:   splitList(*injectors),
		Missions:    *missions,
		Repetitions: *reps,
		Seed:        *seed,
		MaxRetries:  *retries,
	}
	if *matrix {
		frames, err := parseInts("activations", *activation)
		if err != nil {
			return err
		}
		spec.Matrix = &avfi.MatrixSpec{
			Weathers:         splitList(*weathers),
			Densities:        splitList(*densities),
			AEB:              *aebMode,
			ActivationFrames: frames,
		}
	} else {
		spec.Weather, spec.NPCs, spec.Pedestrians = *weather, *npcs, *peds
	}
	if *adaptiveOn {
		spec.Adaptive = &avfi.AdaptiveSpec{Policy: *policyName, Budget: *budget, RoundSize: *roundSize}
	}
	cfg, err := spec.Lower()
	if err != nil {
		return err
	}

	if *verbose {
		avfi.SetLogLevel(avfi.LogInfo)
	}
	var statusSrv *avfi.TelemetryServer
	if *statusAddr != "" {
		if statusSrv, err = avfi.ServeTelemetry(*statusAddr); err != nil {
			return err
		}
		defer statusSrv.Close()
		fmt.Fprintf(stderr, "status: serving /metrics /statusz /healthz /debug/pprof on %s\n", statusSrv.Addr())
	}

	if cfg.Agent, err = agentSource(*agentPath); err != nil {
		return err
	}
	cfg.World = avfi.DefaultWorldConfig()
	cfg.Parallelism = *parallel
	cfg.Pool.Backends = backendList
	cfg.SlowEpisode = *slowEp
	if cfg.Adaptive != nil {
		cfg.Adaptive.RoundProgress = func(s avfi.RoundStats) {
			fmt.Fprintf(stderr, "round %d: %d episodes over %d cells, %d violations; total %d episodes, %d violations\n",
				s.Round, s.Episodes, s.ActiveCells, s.Violations, s.TotalEpisodes, s.TotalViolations)
		}
	}

	var resumeCount int
	if *resumePath != "" {
		// Stream the prior log instead of materializing it: the campaign
		// seeds its builders record by record, so resuming a
		// million-episode log costs one fd and one record of memory.
		stream, err := avfi.OpenRecordsPath(*resumePath)
		if err != nil {
			return err
		}
		defer stream.Close()
		cfg.ResumeFrom = countSource{src: stream, n: &resumeCount}
		fmt.Fprintf(stderr, "resuming: streaming episodes already on record in %s\n", *resumePath)
	}
	var streamFiles []*os.File
	if *streamPath != "" {
		appendMode := *resumePath != "" && sameFile(*streamPath, *resumePath)
		if isDirPath(*streamPath) {
			// A fresh sharded run clears the directory's old shard logs —
			// which would destroy a resume source living inside it before
			// its episodes were re-streamed (seeded records are never
			// re-sunk). Refuse rather than silently hole the durable log.
			if !appendMode && *resumePath != "" && sameFile(filepath.Dir(*resumePath), *streamPath) {
				return fmt.Errorf("-resume %s lives inside the -stream-records directory %s; resume from the directory itself to append, or stream elsewhere",
					*resumePath, *streamPath)
			}
			// Sharded stream: one record log per engine slot, each written
			// by its own aggregation goroutine. Sized by the scheduler's
			// rule (PoolSize); campaigns small enough for the scheduler to
			// clamp further just leave the surplus shards empty.
			workers := *parallel
			if workers <= 0 {
				workers = runtime.NumCPU()
			}
			files, err := openShardLogs(*streamPath, cfg.Pool.PoolSize(workers), appendMode)
			if err != nil {
				return err
			}
			for _, f := range files {
				defer f.Close()
				streamFiles = append(streamFiles, f)
				cfg.ShardSinks = append(cfg.ShardSinks, avfi.NewBinarySink(f))
			}
		} else {
			var f *os.File
			if appendMode {
				// Continuing the same durable log: clamp away any
				// crash-truncated partial tail (the resume reader dropped it
				// too), then append the fresh episodes — the recorded ones
				// are streamed into the builders and not re-sunk.
				f, err = openClampedForAppend(*streamPath)
			} else {
				f, err = os.Create(*streamPath)
			}
			if err != nil {
				return err
			}
			// Backstop for early error returns; the success path closes
			// explicitly below and checks the error (write-back failures can
			// surface at close, and these files are the durable episode log).
			defer f.Close()
			streamFiles = append(streamFiles, f)
			cfg.Sink = avfi.NewBinarySink(f)
		}
		// With the records streamed to disk and no consumer of the
		// in-memory copy, aggregate incrementally instead of retaining
		// O(episodes) memory.
		cfg.DiscardRecords = *recordsCSV == "" && *jsonPath == ""
	}
	columns := len(cfg.Injectors)
	if cfg.Matrix != nil {
		columns = cfg.Matrix.Size()
	}
	runner, err := avfi.NewCampaign(cfg)
	if err != nil {
		return err
	}
	if statusSrv != nil {
		statusSrv.SetStatus("campaign", func() any { return runner.Status() })
	}
	if a := cfg.Adaptive; a != nil {
		fmt.Fprintf(stderr, "adaptive campaign over %d scenario columns x %d missions x %d reps (policy %s, budget %d)...\n",
			columns, *missions, *reps, a.Policy.Name(), a.Budget)
	} else {
		fmt.Fprintf(stderr, "running %d scenario columns x %d missions x %d reps...\n",
			columns, *missions, *reps)
	}
	rs, err := runner.RunContext(ctx)
	if err != nil {
		return err
	}
	if *resumePath != "" {
		fmt.Fprintf(stderr, "resumed: %d episodes were already on record in %s\n", resumeCount, *resumePath)
	}
	// Pool.Engines lists dead and redialed engines too; count live ones.
	poolSize := 0
	for _, es := range rs.Pool.Engines {
		if !es.Dead && !es.Replaced {
			poolSize++
		}
	}
	fmt.Fprintf(stderr, "engine pool: %d episodes over %d %s engine(s), up to %d multiplexed per connection\n",
		rs.Engine.Episodes, poolSize, rs.Engine.Transport, rs.Engine.MaxConcurrentSessions)
	if rs.Pool.Retries > 0 || rs.Pool.Replacements > 0 {
		fmt.Fprintf(stderr, "engine pool: %d episode retries, %d engine redials\n",
			rs.Pool.Retries, rs.Pool.Replacements)
	}
	if rs.Adaptive != nil {
		top, topEpisodes, spent := "", 0, 0
		for _, c := range rs.Adaptive.Cells {
			spent += c.Episodes
			if c.Episodes > topEpisodes {
				top, topEpisodes = c.Cell, c.Episodes
			}
		}
		fmt.Fprintf(stderr, "adaptive: policy %s spent %d episodes over %d rounds; top cell %q got %d\n",
			rs.Adaptive.Policy, spent, len(rs.Adaptive.Rounds), top, topEpisodes)
	}

	avfi.PrintTable(stdout, fmt.Sprintf("AVFI campaign (seed %d)", *seed), rs.Reports)

	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*recordsCSV, func(w io.Writer) error { return avfi.WriteRecordsCSV(w, rs.Records) }},
		{*reportsCSV, func(w io.Writer) error { return avfi.WriteReportsCSV(w, rs.Reports) }},
		{*jsonPath, func(w io.Writer) error { return avfi.WriteJSON(w, rs) }},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	for _, f := range streamFiles {
		if err := f.Close(); err != nil {
			return fmt.Errorf("stream-records: %w", err)
		}
	}
	return nil
}

// checkModeFlags refuses a flag set on the command line that the chosen
// mode would ignore: the matrix dimensions without -matrix, the flat
// grid's environment with it, and the allocation knobs without -adaptive.
func checkModeFlags(fs *flag.FlagSet, matrix, adaptive bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case !matrix && (f.Name == "weathers" || f.Name == "densities" || f.Name == "aeb" || f.Name == "activations"):
			err = fmt.Errorf("-%s needs -matrix", f.Name)
		case matrix && (f.Name == "weather" || f.Name == "npcs" || f.Name == "peds"):
			err = fmt.Errorf("-%s sets the flat grid; with -matrix use -weathers and -densities", f.Name)
		case !adaptive && (f.Name == "policy" || f.Name == "budget" || f.Name == "round"):
			err = fmt.Errorf("-%s needs -adaptive", f.Name)
		}
	})
	return err
}

// parseBackends splits the -backends list, rejecting empty entries (the
// typo signature of a stray comma).
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := splitList(s)
	for _, a := range out {
		if a == "" {
			return nil, fmt.Errorf("-backends %q has an empty address", s)
		}
	}
	return out, nil
}

// isDirPath reports whether path names a directory — an existing one, or
// one spelled with a trailing separator (the caller will create it).
func isDirPath(path string) bool {
	if strings.HasSuffix(path, "/") || strings.HasSuffix(path, string(os.PathSeparator)) {
		return true
	}
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

// countSource counts the records a resume stream yields, so the CLI can
// report how many episodes were skipped without materializing the log.
type countSource struct {
	src avfi.RecordSource
	n   *int
}

// Read implements avfi.RecordSource.
func (c countSource) Read() (avfi.EpisodeRecord, error) {
	rec, err := c.src.Read()
	if err == nil {
		*c.n++
	}
	return rec, err
}

// openShardLogs opens n binary shard logs inside dir, creating it as
// needed. In append mode existing shards are clamped to their last
// complete frame and appended to (the resume reader dropped the partial
// tail too). Otherwise this is a fresh campaign: every existing shard log
// is removed first. Truncating only the first n would leave a previous,
// larger run's higher-numbered shards on disk for a later -resume or merge
// to silently ingest. On any failure the already-opened files are closed.
func openShardLogs(dir string, n int, appendMode bool) ([]*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if !appendMode {
		stale, err := filepath.Glob(filepath.Join(dir, "records-*.bin"))
		if err != nil {
			return nil, err
		}
		for _, path := range stale {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		}
	}
	var files []*os.File
	fail := func(err error) ([]*os.File, error) {
		for _, f := range files {
			f.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, avfi.BinaryShardLogName(i))
		var f *os.File
		var err error
		if _, statErr := os.Stat(path); appendMode && statErr == nil {
			f, err = openClampedForAppend(path)
		} else {
			f, err = os.Create(path)
		}
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
	}
	return files, nil
}

// openClampedForAppend opens an existing binary log for appending after
// truncating it to its last complete frame: fresh frames appended after a
// crash-truncated partial one would read back as mid-file corruption. A
// file that is not a binary log is refused, naming it.
func openClampedForAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := avfi.CompleteBinaryPrefixLen(f)
	if err == nil {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
