// Command avfi runs AVFI fault-injection campaigns from the command line.
//
// Usage:
//
//	avfi -injectors noinject,gaussian,outputdelay -missions 6 -reps 2
//	avfi -injectors all -records-csv records.csv -reports-csv reports.csv
//	avfi -injectors taxonomy,class:comm -matrix -activations 0,30
//	avfi -agent model.avfi -seed 7
//	avfi -matrix -weathers clear,rain -densities 0x0,8x4 -aeb both
//	avfi -engines 4 -retries 2 -stream-records records.bin
//	avfi -matrix -weathers clear,rain,fog -adaptive -policy ucb -budget 256
//	avfi -resume records.bin -stream-records records.bin
//	avfi -serve 0.0.0.0:7070                      # simulator worker
//	avfi -backends host1:7070,host2:7070 -retries 3 -stream-records logs/
//	avfi -resume logs/ -stream-records logs/ -backends host1:7070,host2:7070
//	avfi -status-addr :6060 -v ...                # live /metrics, /statusz, pprof
//
// -status-addr exposes live observability for the process — orchestrator
// and -serve worker alike: /metrics (Prometheus text exposition),
// /statusz (JSON: campaign progress, per-engine health, adaptive round
// state; worker connection counts under -serve), /healthz, and
// /debug/pprof. -v raises logging from warnings to info (episode retries,
// engine lifecycle); -slow-episode logs episodes slower than a threshold.
//
// -serve turns the process into a standalone simulator worker: it accepts
// campaign connections on the given address for its whole lifetime (each
// connection gets its own session-multiplexed engine) until SIGINT/SIGTERM.
// -backends points a campaign at such workers: instead of spawning
// in-process engines, the pool dials the listed addresses round-robin —
// health checks, bounded retry and dead-worker replacement included — and
// produces results bit-identical to the in-process run for the same seed
// (the workers must run the same world configuration, which for avfi
// binaries is always DefaultWorldConfig).
//
// With -matrix, the flat (injector x mission x repetition) grid becomes a
// scenario matrix: every combination of -weathers, -densities, -aeb,
// -activations and -injectors is swept as its own campaign column. All
// episodes ride a pool of persistent session-multiplexed engines — one
// connection per engine (-engines, default 1 in-process, one per backend
// with -backends) for the entire campaign, with least-loaded dispatch,
// bounded episode retry (-retries) and replacement of dead backends.
// Results are identical at any pool size for the same seed.
// -stream-records streams every episode to a binary record log as it
// completes; given a directory (trailing slash, or an existing directory)
// it shards the stream instead — one records-<i>.bin log per engine slot,
// written by independent aggregation goroutines, mergeable back into the
// canonical single log with avfi-records (or MergeRecords), which also
// exports it as JSONL. Binary is the only format -resume and avfi-records
// read. Combined with neither -records-csv nor -json, the campaign
// aggregates incrementally, keeping only a small fixed-size statistics
// digest per episode instead of full records.
//
// -adaptive replaces the exhaustive sweep with the risk-driven
// orchestrator: rounds of -round episodes are allocated over scenario
// cells by -policy (uniform|halving|ucb) from the violation statistics
// observed so far, within a total budget of -budget episodes (0 = the
// full grid). A per-round progress line reports where the budget went.
//
// -resume streams a binary episode log — or a whole shard directory — from
// an earlier partial run (crash-truncated tails are dropped; a log that is
// not binary is refused): recorded episodes are not re-run, their
// statistics seed the reports — and, with -adaptive, the allocation
// posteriors — one record at a time, so resuming costs O(1) memory at any
// campaign size. Resuming into the same -stream-records file or directory
// appends the fresh episodes to the log(s) instead of truncating them.
//
// Without -agent, the driving agent is trained in-process from the oracle
// autopilot first (about a minute); save one with avfi-train to skip that.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/avfi/avfi"
)

func main() {
	// SIGINT/SIGTERM cancel the campaign (in-flight episodes finish, the
	// rest is abandoned — resumable from the streamed log) and gracefully
	// stop a -serve worker.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "avfi: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		injectors  = flag.String("injectors", "noinject,gaussian,saltpepper,solidocc,transpocc,waterdrop", "comma-separated injector names, 'class:FAMILY' selectors, 'taxonomy' (one per family), or 'all'")
		listInj    = flag.Bool("list", false, "list registered injectors and exit")
		missions   = flag.Int("missions", 6, "number of navigation missions")
		reps       = flag.Int("reps", 2, "repetitions (seeds) per mission and injector")
		npcs       = flag.Int("npcs", 0, "NPC vehicles per episode")
		peds       = flag.Int("peds", 0, "pedestrians per episode")
		weather    = flag.String("weather", "clear", "weather: clear|rain|fog")
		matrix     = flag.Bool("matrix", false, "sweep a scenario matrix instead of the flat injector grid")
		weathers   = flag.String("weathers", "clear", "matrix weather levels, comma-separated")
		densities  = flag.String("densities", "0x0", "matrix traffic densities as NPCSxPEDS pairs, e.g. 0x0,8x4")
		aebMode    = flag.String("aeb", "off", "matrix AEB levels: off|on|both")
		activation = flag.String("activations", "0", "matrix fault-activation frames, comma-separated")
		seed       = flag.Uint64("seed", 1, "campaign seed (results are a pure function of it)")
		agentPath  = flag.String("agent", "", "load a trained agent from this file (default: train in-process)")
		recordsCSV = flag.String("records-csv", "", "write per-episode records CSV here")
		reportsCSV = flag.String("reports-csv", "", "write per-injector reports CSV here")
		jsonPath   = flag.String("json", "", "write the full result set as JSON here")
		parallel   = flag.Int("parallel", 0, "concurrent episodes (0 = NumCPU)")
		engines    = flag.Int("engines", 0, "persistent engines in the pool, each its own server+connection (0 = auto: one per -backends worker, else 1)")
		retries    = flag.Int("retries", 0, "per-episode retries after transient engine failures")
		streamPath = flag.String("stream-records", "", "stream per-episode records to this binary record log as they complete (a directory: one records-<i>.bin shard per engine slot); without -records-csv/-json, records are not retained in memory")
		adaptiveOn = flag.Bool("adaptive", false, "risk-driven episode allocation instead of the exhaustive sweep")
		policyName = flag.String("policy", "ucb", "adaptive allocation policy: uniform|halving|ucb")
		budget     = flag.Int("budget", 0, "adaptive total episode budget (0 = the full scenario grid)")
		roundSize  = flag.Int("round", 0, "adaptive episodes per plan/observe/reallocate round (0 = auto)")
		resumePath = flag.String("resume", "", "resume from this binary episode log (or shard directory): recorded episodes are not re-run")
		serveAddr  = flag.String("serve", "", "run as a simulator worker on this address (e.g. :7070) instead of a campaign")
		joinURL    = flag.String("join", "", "with -serve: announce this worker to a campaign service at this base URL (e.g. http://host:8080), retrying until the service is up")
		svcAddr    = flag.String("service", "", "run as a long-lived campaign service on this address (e.g. :8080): workers announce via POST /workers, campaigns submit via POST /campaigns, all sharing /metrics and /statusz")
		backends   = flag.String("backends", "", "comma-separated remote worker addresses; the campaign dials these instead of spawning in-process engines")
		statusAddr = flag.String("status-addr", "", "serve live observability on this address (e.g. :6060): /metrics, /statusz, /healthz, /debug/pprof — for campaigns and -serve workers alike")
		verbose    = flag.Bool("v", false, "verbose logging (episode retries, engine lifecycle); default logs warnings only")
		slowEp     = flag.Duration("slow-episode", 2*time.Minute, "log a warning for episodes slower than this (0 disables)")
	)
	flag.Parse()

	if *verbose {
		avfi.SetLogLevel(avfi.LogInfo)
	}
	if *svcAddr != "" {
		if *serveAddr != "" {
			return fmt.Errorf("-service and -serve are mutually exclusive (a process is the control plane or a worker, not both)")
		}
		if *statusAddr != "" {
			return fmt.Errorf("-service serves /metrics and /statusz on its own address; drop -status-addr")
		}
	}
	if *joinURL != "" && *serveAddr == "" {
		return fmt.Errorf("-join requires -serve (only workers announce themselves)")
	}
	var statusSrv *avfi.TelemetryServer
	if *statusAddr != "" {
		var err error
		if statusSrv, err = avfi.ServeTelemetry(*statusAddr); err != nil {
			return err
		}
		defer statusSrv.Close()
		fmt.Fprintf(os.Stderr, "status: serving /metrics /statusz /healthz /debug/pprof on %s\n", statusSrv.Addr())
	}

	if *listInj {
		for _, name := range avfi.RegisteredInjectors() {
			fmt.Println(name)
		}
		return nil
	}

	if *svcAddr != "" {
		agentSrc, err := agentSource(*agentPath)
		if err != nil {
			return err
		}
		return runService(ctx, *svcAddr, agentSrc, *parallel, *retries, os.Stderr)
	}
	if *serveAddr != "" {
		return serveWorker(ctx, *serveAddr, avfi.DefaultWorldConfig(), os.Stderr, statusSrv, *joinURL)
	}
	backendList, err := parseBackends(*backends)
	if err != nil {
		return err
	}

	sources, err := parseInjectors(*injectors)
	if err != nil {
		return err
	}

	w, err := parseWeather(*weather)
	if err != nil {
		return err
	}

	// Resolve the policy before the expensive world/agent setup so a flag
	// typo fails in milliseconds, not after minutes of training.
	var policy avfi.AdaptivePolicy
	if *adaptiveOn {
		if policy, err = avfi.ParseAdaptivePolicy(*policyName); err != nil {
			return err
		}
	}

	agentSrc, err := agentSource(*agentPath)
	if err != nil {
		return err
	}

	cfg := avfi.CampaignConfig{
		World:          avfi.DefaultWorldConfig(),
		Agent:          agentSrc,
		Injectors:      sources,
		Missions:       *missions,
		Repetitions:    *reps,
		NumNPCs:        *npcs,
		NumPedestrians: *peds,
		Weather:        w,
		Parallelism:    *parallel,
		Pool:           avfi.PoolConfig{Engines: *engines, MaxRetries: *retries, Backends: backendList},
		SlowEpisode:    *slowEp,
		Seed:           *seed,
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
		fmt.Fprintf(os.Stderr, "resuming: streaming episodes already on record in %s\n", *resumePath)
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
	columns := len(sources)
	if *matrix {
		m, err := parseMatrix(sources, *weathers, *densities, *aebMode, *activation)
		if err != nil {
			return err
		}
		cfg.Injectors = nil
		cfg.Matrix = m
		columns = m.Size()
	}
	runner, err := avfi.NewCampaign(cfg)
	if err != nil {
		return err
	}
	if statusSrv != nil {
		statusSrv.SetStatus("campaign", func() any { return runner.Status() })
	}
	var rs *avfi.ResultSet
	if *adaptiveOn {
		fmt.Fprintf(os.Stderr, "adaptive campaign over %d scenario columns x %d missions x %d reps (policy %s, budget %d)...\n",
			columns, *missions, *reps, policy.Name(), *budget)
		rs, err = runner.RunAdaptive(ctx, avfi.AdaptiveConfig{
			Policy:    policy,
			Budget:    *budget,
			RoundSize: *roundSize,
			RoundProgress: func(s avfi.RoundStats) {
				fmt.Fprintf(os.Stderr, "round %d: %d episodes over %d cells, %d violations; total %d episodes, %d violations\n",
					s.Round, s.Episodes, s.ActiveCells, s.Violations, s.TotalEpisodes, s.TotalViolations)
			},
		})
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "running %d scenario columns x %d missions x %d reps...\n",
			columns, *missions, *reps)
		rs, err = runner.RunContext(ctx)
		if err != nil {
			return err
		}
	}
	if *resumePath != "" {
		fmt.Fprintf(os.Stderr, "resumed: %d episodes were already on record in %s\n", resumeCount, *resumePath)
	}
	// Pool.Engines lists dead and replaced engines too; count live ones.
	poolSize := 0
	for _, es := range rs.Pool.Engines {
		if !es.Dead && !es.Replaced {
			poolSize++
		}
	}
	fmt.Fprintf(os.Stderr, "engine pool: %d episodes over %d %s engine(s), up to %d multiplexed per connection\n",
		rs.Engine.Episodes, poolSize, rs.Engine.Transport, rs.Engine.MaxConcurrentSessions)
	if rs.Pool.Retries > 0 || rs.Pool.Replacements > 0 {
		fmt.Fprintf(os.Stderr, "engine pool: %d episode retries, %d engine replacements\n",
			rs.Pool.Retries, rs.Pool.Replacements)
	}
	if rs.Adaptive != nil {
		top, topEpisodes := "", 0
		for _, c := range rs.Adaptive.Cells {
			if c.Episodes > topEpisodes {
				top, topEpisodes = c.Cell, c.Episodes
			}
		}
		fmt.Fprintf(os.Stderr, "adaptive: policy %s spent %d episodes over %d rounds; top cell %q got %d\n",
			rs.Adaptive.Policy, rs.Adaptive.Budget, len(rs.Adaptive.Rounds), top, topEpisodes)
	}

	avfi.PrintTable(os.Stdout, fmt.Sprintf("AVFI campaign (seed %d)", *seed), rs.Reports)

	if *recordsCSV != "" {
		if err := writeFile(*recordsCSV, func(f *os.File) error {
			return avfi.WriteRecordsCSV(f, rs.Records)
		}); err != nil {
			return err
		}
	}
	if *reportsCSV != "" {
		if err := writeFile(*reportsCSV, func(f *os.File) error {
			return avfi.WriteReportsCSV(f, rs.Reports)
		}); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(f *os.File) error {
			return avfi.WriteJSON(f, rs)
		}); err != nil {
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

// serveWorker runs the process as a standalone simulator worker: a world
// built from wcfg, serving campaign connections on addr until ctx is
// cancelled (SIGINT/SIGTERM in main). The bound address is announced on
// out — with ":0", that line is how callers learn the port. A non-nil
// statusSrv gets a "worker" /statusz section for the worker's lifetime.
func serveWorker(ctx context.Context, addr string, wcfg avfi.WorldConfig, out io.Writer, statusSrv *avfi.TelemetryServer, joinURL string) error {
	w, err := avfi.NewWorld(wcfg)
	if err != nil {
		return err
	}
	worker := avfi.NewSimWorker(w)
	bound, err := worker.Listen(addr)
	if err != nil {
		return err
	}
	if statusSrv != nil {
		statusSrv.SetStatus("worker", func() any { return worker.Status() })
	}
	fmt.Fprintf(out, "worker: serving simulator backend on %s\n", bound)
	if joinURL != "" {
		announce := announceAddr(bound)
		go func() {
			if err := announceWorker(ctx, joinURL, announce); err != nil {
				// The worker keeps serving either way: a campaign can still
				// dial it directly via -backends.
				fmt.Fprintf(out, "worker: announce to %s failed: %v\n", joinURL, err)
				return
			}
			fmt.Fprintf(out, "worker: announced %s to %s\n", announce, joinURL)
		}()
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			worker.Close()
		case <-done:
		}
	}()
	err = worker.Serve()
	if ctx.Err() != nil {
		fmt.Fprintf(out, "worker: shut down after %d connection(s)\n", worker.ConnsServed())
		return nil
	}
	return err
}

// runService runs the process as the long-lived campaign control plane:
// one shared engine fleet, a worker announce endpoint, and the campaign
// submit/status/results API — all mounted on the telemetry endpoint so a
// single address serves the API, /metrics, /statusz and pprof. Blocks
// until SIGINT/SIGTERM.
func runService(ctx context.Context, addr string, agentSrc avfi.AgentSource, parallel, retries int, out io.Writer) error {
	svc, err := avfi.NewCampaignService(avfi.CampaignServiceConfig{
		World:          avfi.DefaultWorldConfig(),
		Agent:          agentSrc,
		Parallelism:    parallel,
		DefaultRetries: retries,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	srv, err := avfi.ServeTelemetry(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := svc.Handler()
	srv.Handle("/campaigns", h)
	srv.Handle("/campaigns/", h)
	srv.Handle("/workers", h)
	srv.SetStatus("service", func() any { return svc.Status() })
	fmt.Fprintf(out, "service: campaign control plane on %s (POST /workers to join, POST /campaigns to submit; /metrics, /statusz)\n", srv.Addr())
	<-ctx.Done()
	fmt.Fprintln(out, "service: shutting down")
	return nil
}

// announceAddr rewrites a worker's bound listen address into one a
// service on the same host (or CI runner) can dial back: an unspecified
// host (":7070", "0.0.0.0:7070", "[::]:7070") becomes loopback. Workers
// reachable only on a specific interface should -serve that address
// explicitly.
func announceAddr(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return bound
}

// announceWorker POSTs the worker's address to the service's /workers
// endpoint, retrying while the service is still coming up. The budget
// is generous because a freshly launched service may train its agent
// in-process for minutes before it starts listening. A 409 means the
// service rejected the pairing outright (world-configuration mismatch)
// — retrying cannot help, so it fails immediately.
func announceWorker(ctx context.Context, baseURL, addr string) error {
	const attempts = 600
	url := strings.TrimSuffix(baseURL, "/") + "/workers"
	body := fmt.Sprintf(`{"addr":%q}`+"\n", addr)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Second):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusConflict:
			return fmt.Errorf("service rejected this worker: %s", strings.TrimSpace(string(msg)))
		default:
			lastErr = fmt.Errorf("announce: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
	}
	return fmt.Errorf("giving up after %d attempts: %w", attempts, lastErr)
}

// parseInjectors expands the -injectors selector into campaign columns.
// Each comma-separated entry is an injector name, "class:FAMILY" (every
// registered injector of one fault class — see avfi.FaultClasses), "all",
// or "taxonomy" (one representative per class plus the baseline).
func parseInjectors(s string) ([]avfi.InjectorSource, error) {
	var sources []avfi.InjectorSource
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		switch {
		case entry == "":
		case entry == "all":
			for _, name := range avfi.RegisteredInjectors() {
				sources = append(sources, avfi.Injector(name))
			}
		case entry == "taxonomy":
			sources = append(sources, avfi.FaultTaxonomySuite()...)
		case strings.HasPrefix(entry, "class:"):
			names, err := avfi.InjectorsByClass(strings.TrimPrefix(entry, "class:"))
			if err != nil {
				return nil, fmt.Errorf("-injectors %q: %w", entry, err)
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("-injectors %q matches no registered injector", entry)
			}
			for _, name := range names {
				sources = append(sources, avfi.Injector(name))
			}
		default:
			sources = append(sources, avfi.Injector(entry))
		}
	}
	return sources, nil
}

// parseBackends splits the -backends list, rejecting empty entries (the
// typo signature of a stray comma).
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-backends %q has an empty address", s)
		}
		out = append(out, a)
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

// parseMatrix assembles the -matrix scenario space from its flag values.
func parseMatrix(sources []avfi.InjectorSource, weathers, densities, aebMode, activations string) (*avfi.ScenarioMatrix, error) {
	m := &avfi.ScenarioMatrix{Injectors: sources}
	for _, s := range strings.Split(weathers, ",") {
		w, err := parseWeather(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		m.Weathers = append(m.Weathers, w)
	}
	for _, s := range strings.Split(densities, ",") {
		var d avfi.Density
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%dx%d", &d.NPCs, &d.Pedestrians); err != nil {
			return nil, fmt.Errorf("bad density %q (want NPCSxPEDS, e.g. 8x4)", s)
		}
		m.Densities = append(m.Densities, d)
	}
	switch aebMode {
	case "off":
		m.AEB = []bool{false}
	case "on":
		m.AEB = []bool{true}
	case "both":
		m.AEB = []bool{false, true}
	default:
		return nil, fmt.Errorf("bad -aeb %q (want off|on|both)", aebMode)
	}
	for _, s := range strings.Split(activations, ",") {
		var frame int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &frame); err != nil {
			return nil, fmt.Errorf("bad activation frame %q", s)
		}
		m.ActivationFrames = append(m.ActivationFrames, frame)
	}
	return m, nil
}

func parseWeather(s string) (avfi.Weather, error) {
	switch s {
	case "clear":
		return avfi.WeatherClear, nil
	case "rain":
		return avfi.WeatherRain, nil
	case "fog":
		return avfi.WeatherFog, nil
	default:
		return avfi.WeatherClear, fmt.Errorf("unknown weather %q", s)
	}
}

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

func writeFile(path string, write func(*os.File) error) error {
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
