package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/avfi/avfi/internal/fault"
	"github.com/avfi/avfi/internal/proto"
	"github.com/avfi/avfi/internal/sim"
	"github.com/avfi/avfi/internal/simclient"
	"github.com/avfi/avfi/internal/simserver"
	"github.com/avfi/avfi/internal/transport"
	"github.com/avfi/avfi/internal/world"
)

// startTestService boots a campaign service over the tiny world and
// registers the given workers, tearing everything down when the test
// ends. The re-dial interval is short so chaos tests see recovery within
// test timeouts.
func startTestService(t testing.TB, addrs []string) *Service {
	t.Helper()
	svc, err := NewService(ServiceConfig{
		World:          tinyWorldConfig(),
		Agent:          AgentSource{Agent: tinyAgent(t)},
		Parallelism:    4,
		RedialInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	for _, a := range addrs {
		if _, err := svc.AddWorker(a); err != nil {
			t.Fatalf("AddWorker(%s): %v", a, err)
		}
	}
	return svc
}

// specBaselineConfig builds the in-process Config a CampaignSpec lowers
// to — the solo baseline the service's runs must reproduce bit-for-bit.
func specBaselineConfig(tb testing.TB, spec CampaignSpec) Config {
	tb.Helper()
	cfg := tinyConfig(tb, nil)
	for _, name := range spec.Injectors {
		cfg.Injectors = append(cfg.Injectors, Registry(name))
	}
	cfg.Missions = spec.Missions
	cfg.Repetitions = spec.Repetitions
	cfg.Seed = spec.Seed
	cfg.Weather = world.WeatherClear
	return cfg
}

// waitCampaign waits for one service campaign with a test-sized timeout.
func waitCampaign(t *testing.T, svc *Service, id string) *ResultSet {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rs, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("campaign %s failed: %v", id, err)
	}
	return rs
}

// TestWorkerJoinsMidCampaign is the fleet-grow chaos invariant (the
// complement of TestChaosBackendKillMidCampaign's shrink): a campaign
// starts on two workers, a third announces itself mid-run, and the
// service folds it into the live fleet — it absorbs episodes, and the
// ResultSet stays bit-identical to the undisturbed solo run, because
// where an episode executes is not part of its result.
func TestWorkerJoinsMidCampaign(t *testing.T) {
	spec := CampaignSpec{
		Injectors:   []string{fault.NoopName, "gaussian"},
		Missions:    3,
		Repetitions: 2,
		Seed:        3,
	}
	baseline, err := NewRunner(specBaselineConfig(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}

	addrs, workers := startTestWorkers(t, 3)
	svc := startTestService(t, addrs[:2])

	var once sync.Once
	joined := make(chan error, 1)
	svc.mu.Lock()
	svc.testOnEpisode = func(_ string, n int) {
		if n >= 1 {
			once.Do(func() {
				// Announce from a fresh goroutine: the hook runs on the
				// aggregation path, which must never block on a dial.
				go func() {
					_, err := svc.AddWorker(addrs[2])
					joined <- err
				}()
			})
		}
	}
	svc.mu.Unlock()

	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, svc, id)

	select {
	case err := <-joined:
		if err != nil {
			t.Fatalf("mid-campaign join failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("third worker never finished joining")
	}

	got, err := svc.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Records) {
		t.Error("records after a mid-campaign join diverged from the undisturbed solo run")
	}
	if workers[2].ConnsServed() == 0 {
		t.Error("joined worker served no connection")
	}
	ps, _ := svc.fleet.pool.snapshot()
	joinedEpisodes := -1
	for _, es := range ps.Engines {
		if es.Backend == addrs[2] {
			joinedEpisodes = es.Episodes
		}
	}
	if joinedEpisodes < 0 {
		t.Fatal("joined worker never became a fleet engine slot")
	}
	if joinedEpisodes == 0 {
		t.Error("joined worker absorbed no episodes")
	}
}

// TestConcurrentCampaignsBitIdentical is the multi-tenant contract: two
// campaigns submitted to one service interleave over a shared
// three-worker fleet, and each produces results bit-identical to its
// solo run — cross-campaign scheduling is invisible in every result bit.
// The fairness gate's grant log must also show both campaigns making
// progress while they overlap (neither starves).
func TestConcurrentCampaignsBitIdentical(t *testing.T) {
	specA := CampaignSpec{
		Injectors:   []string{fault.NoopName, "gaussian"},
		Missions:    2,
		Repetitions: 3,
		Seed:        3,
	}
	specB := CampaignSpec{
		Injectors:   []string{fault.NoopName, "saltpepper"},
		Missions:    2,
		Repetitions: 3,
		Seed:        7,
	}
	solo := func(spec CampaignSpec) *ResultSet {
		r, err := NewRunner(specBaselineConfig(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	wantA, wantB := solo(specA), solo(specB)

	addrs, _ := startTestWorkers(t, 3)
	svc := startTestService(t, addrs)
	svc.fleet.gate.record()

	idA, err := svc.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := svc.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, svc, idA)
	waitCampaign(t, svc, idB)

	gotA, err := svc.Results(idA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := svc.Results(idB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA.Records) {
		t.Error("campaign A's records diverged from its solo run")
	}
	if !reflect.DeepEqual(gotB, wantB.Records) {
		t.Error("campaign B's records diverged from its solo run")
	}

	// Fairness: in the window where both campaigns had episodes in flight
	// (from B's first grant to A's last), round-robin granting must give
	// each a real share — a starved campaign would be all but absent.
	grants := svc.fleet.gate.grants()
	firstB, lastA := -1, -1
	for i, id := range grants {
		if id == idB && firstB < 0 {
			firstB = i
		}
		if id == idA {
			lastA = i
		}
	}
	if firstB < 0 || lastA < 0 || firstB >= lastA {
		t.Fatalf("campaigns never overlapped (grant log: %v)", grants)
	}
	window := grants[firstB : lastA+1]
	counts := map[string]int{}
	for _, id := range window {
		counts[id]++
	}
	if len(window) >= 8 {
		for _, id := range []string{idA, idB} {
			if counts[id] < len(window)/4 {
				t.Errorf("campaign %s got %d of %d overlapping grants (<25%%): starvation (window: %v)",
					id, counts[id], len(window), window)
			}
		}
	}
}

// TestFairGateRoundRobin pins the gate's deterministic core: with one
// campaign holding the only slot and two others queued, released slots
// rotate between the waiters instead of draining one queue first.
func TestFairGateRoundRobin(t *testing.T) {
	gate := newFairGate(1)
	gate.record()
	ctx := context.Background()
	if err := gate.acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	// Queue waiters in a controlled order: b, c, b, c.
	var wg sync.WaitGroup
	enqueue := func(id string, wantDepth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := gate.acquire(ctx, id); err != nil {
				t.Errorf("acquire(%s): %v", id, err)
				return
			}
			gate.release()
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			gate.mu.Lock()
			depth := len(gate.queues[id])
			gate.mu.Unlock()
			if depth == wantDepth {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %s never queued (depth %d, want %d)", id, depth, wantDepth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	enqueue("b", 1)
	enqueue("c", 1)
	enqueue("b", 2)
	enqueue("c", 2)

	gate.release() // a's slot starts the rotation
	wg.Wait()

	want := []string{"a", "b", "c", "b", "c"}
	if got := gate.grants(); !reflect.DeepEqual(got, want) {
		t.Errorf("grant order = %v, want %v (round-robin)", got, want)
	}
	gate.mu.Lock()
	free := gate.free
	gate.mu.Unlock()
	if free != 1 {
		t.Errorf("free slots after drain = %d, want 1", free)
	}
}

// TestFairGateCancelledWaiter: a waiter whose context dies must leave the
// queue without consuming a slot.
func TestFairGateCancelledWaiter(t *testing.T) {
	gate := newFairGate(1)
	gate.record()
	if err := gate.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- gate.acquire(ctx, "b") }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gate.mu.Lock()
		queued := len(gate.queues["b"]) == 1
		gate.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled acquire returned nil")
	}
	gate.release()
	gate.mu.Lock()
	free := gate.free
	gate.mu.Unlock()
	if free != 1 {
		t.Errorf("free slots = %d after release with no live waiters, want 1", free)
	}
	if got, want := gate.grants(), []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("grants = %v, want %v (the cancelled waiter must not be granted)", got, want)
	}
}

// startWorldWorker boots one worker serving the given world config and
// returns its address and the count of episodes opened on it.
func startWorldWorker(t testing.TB, cfg sim.WorldConfig) (string, *atomic.Int32) {
	t.Helper()
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opens atomic.Int32
	wk := simserver.NewWorker(func(ecfg sim.EpisodeConfig) (*sim.Episode, error) {
		opens.Add(1)
		return w.NewEpisode(ecfg)
	}, cfg.Hash())
	addr, err := wk.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- wk.Serve() }()
	t.Cleanup(func() {
		wk.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("worker %s Serve: %v", addr, err)
		}
	})
	return addr, &opens
}

// startFakeWorker listens on loopback and greets each connection with
// hello (nothing, when nil), then counts whatever the campaign sends it —
// a peer that is not a current AVFI worker.
func startFakeWorker(t *testing.T, hello []byte) (string, *atomic.Int32) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var received atomic.Int32
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if hello != nil {
					_ = conn.Send(hello)
				}
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
					received.Add(1)
				}
			}()
		}
	}()
	return l.Addr(), &received
}

// runAgainst runs a one-episode campaign against a single backend.
func runAgainst(t *testing.T, addr string) error {
	t.Helper()
	cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
	cfg.Pool = PoolConfig{Backends: []string{addr}, MaxRetries: 2}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	return err
}

// TestWorkerWithoutHelloRejected: a peer that accepts the connection but
// never sends a hello is not paired "without world verification" — the
// dial fails with ErrNoHello within its timeout and no episode is sent.
func TestWorkerWithoutHelloRejected(t *testing.T) {
	addr, received := startFakeWorker(t, nil)
	start := time.Now()
	err := runAgainst(t, addr)
	if !errors.Is(err, simclient.ErrNoHello) {
		t.Fatalf("Run against a silent worker = %v, want ErrNoHello", err)
	}
	if took := time.Since(start); took > 3*backendDialTimeout {
		t.Errorf("dial took %s, want about the %s hello timeout", took, backendDialTimeout)
	}
	if n := received.Load(); n != 0 {
		t.Errorf("campaign sent %d messages to a worker that never said hello", n)
	}
}

// TestV1WorkerRejected: a worker speaking protocol version 1 fails the
// dial on its first message, with a codec error naming both versions, and
// receives no episode.
func TestV1WorkerRejected(t *testing.T) {
	hello := proto.EncodeEnvelope(0, proto.EncodeHello(tinyWorldConfig().Hash()))
	hello[0] = 1 // the envelope's version byte
	addr, received := startFakeWorker(t, hello)
	err := runAgainst(t, addr)
	if !errors.Is(err, proto.ErrCodec) || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("Run against a v1 worker = %v, want a codec error naming version 1 and version 2", err)
	}
	if n := received.Load(); n != 0 {
		t.Errorf("campaign sent %d messages to a v1 worker", n)
	}
}

// TestWorldHashMismatchRejected: a worker announcing a different world
// fingerprint must be rejected at dial time with the typed error — by a
// direct Backends campaign and by the service's announce path alike.
// Every episode such a pairing ran would silently break bit-identity.
func TestWorldHashMismatchRejected(t *testing.T) {
	otherCfg := tinyWorldConfig()
	otherCfg.Town.GridW = 4 // a different world, honestly announced
	addr, opens := startWorldWorker(t, otherCfg)
	t.Cleanup(func() {
		if n := opens.Load(); n != 0 {
			t.Errorf("mismatched worker was sent %d episodes", n)
		}
	})

	t.Run("backends campaign", func(t *testing.T) {
		cfg := tinyConfig(t, []InjectorSource{Registry(fault.NoopName)})
		cfg.Pool = PoolConfig{Backends: []string{addr}}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run()
		var wm *WorldMismatchError
		if !errors.As(err, &wm) {
			t.Fatalf("Run against a mismatched worker = %v, want WorldMismatchError", err)
		}
		if wm.Want != tinyWorldConfig().Hash() || wm.Got != otherCfg.Hash() {
			t.Errorf("mismatch hashes want/got = %016x/%016x, expected %016x/%016x",
				wm.Want, wm.Got, tinyWorldConfig().Hash(), otherCfg.Hash())
		}
	})

	t.Run("service announce", func(t *testing.T) {
		svc := startTestService(t, nil)
		_, err := svc.AddWorker(addr)
		var wm *WorldMismatchError
		if !errors.As(err, &wm) {
			t.Fatalf("AddWorker(mismatched) = %v, want WorldMismatchError", err)
		}
		// The rejected worker must not linger in the registry (the re-dial
		// loop would pointlessly hammer it forever).
		if ws := svc.Workers(); len(ws) != 0 {
			t.Errorf("rejected worker stayed registered: %+v", ws)
		}
	})
}

// jsonKeyPaths flattens a decoded JSON document into its sorted set of
// key paths (array elements contribute under a "[]" segment) — the
// schema shape, independent of values.
func jsonKeyPaths(v any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, vv := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, vv)
			}
		case []any:
			for _, vv := range x {
				walk(prefix+"[]", vv)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestCampaignInfoGoldenSchema pins the GET /campaigns/{id} JSON shape:
// clients and dashboards key on these exact paths, so a field rename or
// removal must show up in this diff and be deliberate.
func TestCampaignInfoGoldenSchema(t *testing.T) {
	addrs, _ := startTestWorkers(t, 1)
	svc := startTestService(t, addrs)
	id, err := svc.Submit(CampaignSpec{
		Injectors:   []string{fault.NoopName},
		Missions:    1,
		Repetitions: 1,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, svc, id)

	req := httptest.NewRequest(http.MethodGet, "/campaigns/"+id, nil)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /campaigns/%s = %d: %s", id, rec.Code, rec.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"id",
		"records",
		"spec",
		"spec.injectors",
		"spec.missions",
		"spec.repetitions",
		"spec.seed",
		"status",
		"status.cells",
		"status.cells[].cell",
		"status.cells[].episodes",
		"status.cells[].mean_seconds",
		"status.elapsed_sec",
		"status.episodes_done",
		"status.episodes_planned",
		"status.mode",
		"status.replacements",
		"status.retries",
		"status.state",
	}
	if got := jsonKeyPaths(doc); !reflect.DeepEqual(got, want) {
		t.Errorf("GET /campaigns/{id} schema changed.\ngot:\n  %q\nwant:\n  %q", got, want)
	}
}

// TestServiceHTTPAPI drives the whole control plane over HTTP: announce,
// submit (flat and adaptive), poll to completion, stream results in both
// formats, and the error paths clients depend on.
func TestServiceHTTPAPI(t *testing.T) {
	addrs, _ := startTestWorkers(t, 2)
	svc := startTestService(t, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Workers join over the wire.
	for _, a := range addrs {
		code, body := post("/workers", `{"addr":"`+a+`"}`)
		if code != http.StatusOK {
			t.Fatalf("POST /workers = %d: %s", code, body)
		}
	}
	code, body := get("/workers")
	if code != http.StatusOK {
		t.Fatalf("GET /workers = %d: %s", code, body)
	}
	var ws []WorkerInfo
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || !ws[0].Up || !ws[1].Up {
		t.Fatalf("GET /workers = %+v, want 2 live workers", ws)
	}

	// Submit and poll a flat campaign.
	code, body = post("/campaigns", `{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /campaigns = %d: %s", code, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	pollDone := func(id string) CampaignInfo {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			code, body := get("/campaigns/" + id)
			if code != http.StatusOK {
				t.Fatalf("GET /campaigns/%s = %d: %s", id, code, body)
			}
			var info CampaignInfo
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			switch info.Status.State {
			case "done":
				return info
			case "failed":
				t.Fatalf("campaign %s failed: %s", id, info.Status.Err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s never finished (state %s)", id, info.Status.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	info := pollDone(submitted.ID)
	if info.Records != 8 { // 2 injectors x 2 missions x 2 repetitions
		t.Errorf("finished campaign buffered %d records, want 8", info.Records)
	}

	// Results stream in both formats; two fetches are byte-identical
	// (canonical order is part of the contract).
	code, jsonl := get("/campaigns/" + submitted.ID + "/results?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("GET results jsonl = %d", code)
	}
	if lines := strings.Count(string(jsonl), "\n"); lines != 8 {
		t.Errorf("JSONL results have %d lines, want 8", lines)
	}
	_, again := get("/campaigns/" + submitted.ID + "/results?format=jsonl")
	if string(jsonl) != string(again) {
		t.Error("two result fetches of a finished campaign differ")
	}
	code, bin := get("/campaigns/" + submitted.ID + "/results?format=binary")
	if code != http.StatusOK {
		t.Fatalf("GET results binary = %d", code)
	}
	var export strings.Builder
	if n, err := MergeRecords(&export, FormatJSONL, strings.NewReader(string(bin))); err != nil || n != 8 {
		t.Fatalf("merging binary results = %d, %v; want 8 records", n, err)
	}
	if export.String() != string(jsonl) {
		t.Error("binary results do not export to the service's JSONL results")
	}

	// An adaptive submission runs through the same fleet.
	code, body = post("/campaigns", `{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"seed":9,"adaptive":{"policy":"uniform","budget":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST adaptive campaign = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if info := pollDone(submitted.ID); info.Records != 4 {
		t.Errorf("adaptive campaign buffered %d records, want the budget's 4", info.Records)
	}

	// The list view carries every submission.
	code, body = get("/campaigns")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns = %d", code)
	}
	var list []CampaignInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Errorf("GET /campaigns listed %d campaigns, want 2", len(list))
	}

	// Error paths.
	if code, _ := get("/campaigns/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown campaign = %d, want 404", code)
	}
	if code, _ := get("/campaigns/" + submitted.ID + "/results?format=xml"); code != http.StatusBadRequest {
		t.Errorf("GET results with a bogus format = %d, want 400", code)
	}
	if code, _ := post("/campaigns", `{"injectors":["noinject"],"missions":1,"repetitions":1,"bogus_field":1}`); code != http.StatusBadRequest {
		t.Errorf("POST with an unknown spec field = %d, want 400", code)
	}
	if code, _ := post("/campaigns", `{"missions":1,"repetitions":1}`); code != http.StatusBadRequest {
		t.Errorf("POST with no injectors = %d, want 400", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /campaigns = %d, want 405", resp.StatusCode)
	}
}

// TestServiceSubmitValidation: malformed specs must fail at submit time,
// not at run time.
func TestServiceSubmitValidation(t *testing.T) {
	svc := startTestService(t, nil)
	cases := []struct {
		name string
		spec CampaignSpec
	}{
		{"no injectors", CampaignSpec{Missions: 1, Repetitions: 1}},
		{"bad weather", CampaignSpec{Injectors: []string{fault.NoopName}, Missions: 1, Repetitions: 1, Weather: "hail"}},
		{"unknown injector", CampaignSpec{Injectors: []string{"definitely-not-registered"}, Missions: 1, Repetitions: 1}},
		{"zero missions", CampaignSpec{Injectors: []string{fault.NoopName}, Repetitions: 1}},
		{"bad adaptive policy", CampaignSpec{Injectors: []string{fault.NoopName}, Missions: 1, Repetitions: 1,
			Adaptive: &AdaptiveSpec{Policy: "nonsense"}}},
		{"bad matrix density", CampaignSpec{Injectors: []string{fault.NoopName}, Missions: 1, Repetitions: 1,
			Matrix: &MatrixSpec{Densities: []string{"lots"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := svc.Submit(tc.spec); err == nil {
				t.Errorf("Submit accepted a %s spec", tc.name)
			}
		})
	}
	if got := svc.Campaigns(); len(got) != 0 {
		t.Errorf("rejected submissions left %d campaigns registered", len(got))
	}
}

// TestSpecLowerSelectors: a spec's injector selectors expand exactly as
// the suites they name, and a malformed density is refused at submit time
// whatever trails the numbers.
func TestSpecLowerSelectors(t *testing.T) {
	cfg, _, err := CampaignSpec{Injectors: []string{"taxonomy"}, Missions: 1, Repetitions: 1}.Lower()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, src := range cfg.Injectors {
		got = append(got, src.Name)
	}
	for _, src := range TaxonomySuite() {
		want = append(want, src.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("taxonomy selector = %v, want TaxonomySuite %v", got, want)
	}

	svc := startTestService(t, nil)
	spec := CampaignSpec{Injectors: []string{fault.NoopName}, Missions: 1, Repetitions: 1,
		Matrix: &MatrixSpec{Densities: []string{"8x4junk"}}}
	if _, err := svc.Submit(spec); err == nil || !strings.Contains(err.Error(), "8x4junk") {
		t.Errorf("Submit of density 8x4junk: err = %v, want a refusal naming it", err)
	}
}
