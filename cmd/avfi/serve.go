package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/avfi/avfi"
)

// serve is `avfi serve ADDR`: a standalone simulator worker accepting
// campaign connections on ADDR (each gets its own session-multiplexed
// engine) until SIGINT/SIGTERM. Campaigns reach it with `avfi run
// -backends`, or through a service it announces itself to with -join. The
// worker always builds DefaultWorldConfig, as every avfi campaign does.
func serve(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flagSet("serve", stderr)
	joinURL := fs.String("join", "", "announce this worker to a campaign service at this base URL (e.g. http://host:8080), retrying until the service is up")
	statusAddr := fs.String("status-addr", "", "serve live observability on this address (e.g. :6061): /metrics, /statusz, /healthz, /debug/pprof")
	verbose := fs.Bool("v", false, "verbose logging (engine lifecycle); default logs warnings only")
	if err := parseFlags(fs, args, 1); err != nil {
		return err
	}
	if *verbose {
		avfi.SetLogLevel(avfi.LogInfo)
	}
	var statusSrv *avfi.TelemetryServer
	if *statusAddr != "" {
		var err error
		if statusSrv, err = avfi.ServeTelemetry(*statusAddr); err != nil {
			return err
		}
		defer statusSrv.Close()
		fmt.Fprintf(stderr, "status: serving /metrics /statusz /healthz /debug/pprof on %s\n", statusSrv.Addr())
	}
	return serveWorker(ctx, fs.Arg(0), avfi.DefaultWorldConfig(), stderr, statusSrv, *joinURL)
}

// service is `avfi service ADDR`: the long-lived campaign control plane.
// Workers announce via POST /workers, campaigns submit via POST
// /campaigns, and ADDR also serves /metrics and /statusz.
func service(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flagSet("service", stderr)
	agentPath := fs.String("agent", "", "load a trained agent from this file (default: train in-process)")
	parallel := fs.Int("parallel", 0, "concurrent episodes (0 = NumCPU)")
	retries := fs.Int("retries", 0, "default per-episode retries after transient engine failures")
	verbose := fs.Bool("v", false, "verbose logging (episode retries, engine lifecycle); default logs warnings only")
	if err := parseFlags(fs, args, 1); err != nil {
		return err
	}
	if *verbose {
		avfi.SetLogLevel(avfi.LogInfo)
	}
	agentSrc, err := agentSource(*agentPath)
	if err != nil {
		return err
	}
	return runService(ctx, fs.Arg(0), agentSrc, *parallel, *retries, stderr)
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
// reachable only on a specific interface should serve that address
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
