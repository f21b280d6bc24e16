package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"github.com/avfi/avfi"
)

// slot is one episode of a campaign grid.
type slot struct{ cell, mission, rep int }

// traceSlots picks the episodes the traced passes replay: n of the grid's
// slots, seed-chosen, walking a shuffled column order so the sample covers
// as many columns as it has episodes.
func traceSlots(cfg avfi.CampaignConfig, n int, seed uint64) []slot {
	cells := len(cellsOf(cfg))
	if total := cells * cfg.Missions * cfg.Repetitions; n > total {
		n = total
	}
	rnd := rand.New(rand.NewPCG(seed, 0x736c6f7473)) // "slots"
	order := rnd.Perm(cells)
	seen := make(map[slot]bool)
	var out []slot
	for i := 0; len(out) < n; i++ {
		s := slot{order[i%cells], rnd.IntN(cfg.Missions), rnd.IntN(cfg.Repetitions)}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	// Campaign job order, which is also the direct drive's.
	slices.SortFunc(out, func(a, b slot) int {
		return cmp.Or(cmp.Compare(a.cell, b.cell), cmp.Compare(a.mission, b.mission), cmp.Compare(a.rep, b.rep))
	})
	return out
}

// allBut lists a placeholder record for every slot of the grid except
// keep. Resuming a campaign from them makes it run exactly the kept slots
// on its real pool — how the traced passes run a few episodes of a
// workload's grid as a campaign.
func allBut(cfg avfi.CampaignConfig, keep []slot) []avfi.EpisodeRecord {
	kept := make(map[slot]bool, len(keep))
	for _, s := range keep {
		kept[s] = true
	}
	var out []avfi.EpisodeRecord
	for c, cl := range cellsOf(cfg) {
		for m := 0; m < cfg.Missions; m++ {
			for r := 0; r < cfg.Repetitions; r++ {
				if !kept[slot{c, m, r}] {
					out = append(out, avfi.EpisodeRecord{Injector: cl.key, Mission: m, Repetition: r})
				}
			}
		}
	}
	return out
}

// scrape reads the process's telemetry as series -> value.
func scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := avfi.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// traceCampaign is a campaign workload's traced run: four passes over the
// same few episodes of its grid plus the probes, giving the per-layer
// metrics. End-to-end metrics are never taken from here.
func traceCampaign(s *shape, o runOpts) (*outcome, error) {
	out := &outcome{workload: s.name}
	cfg := s.config(o.seed, o.smoke)
	n := max(1, int(float64(s.traceSlots)*o.seconds/runSeconds+0.5))
	if o.smoke {
		n = 1
	}
	slots := traceSlots(cfg, n, o.seed)
	pass := func(slots []slot, telemetry bool) (*roundOut, map[string]float64, error) {
		avfi.SetTelemetryEnabled(telemetry)
		defer avfi.SetTelemetryEnabled(false)
		before, err := scrape()
		if err != nil {
			return nil, nil, err
		}
		r, err := s.round(cfg, o.tmp, rigOpts{parallelism: 1, resume: &sliceSource{recs: allBut(cfg, slots)}})
		if err != nil {
			return nil, nil, err
		}
		after, err := scrape()
		if err != nil {
			return nil, nil, err
		}
		if len(r.records) != len(slots) {
			return nil, nil, fmt.Errorf("%s: traced pass logged %d records, want %d", s.name, len(r.records), len(slots))
		}
		return r, promDelta(before, after), nil
	}

	// One episode unmeasured first, so the heap, the page cache and the
	// loopback path are as warm for pass B as for the passes after it.
	if !o.smoke {
		if _, _, err := pass(slots[:1], false); err != nil {
			return nil, err
		}
	}
	// (B) the campaign, one episode at a time, telemetry off.
	b, _, err := pass(slots, false)
	if err != nil {
		return nil, err
	}
	frames := float64(b.frames)
	out.attempted = len(slots)

	// (A) the direct drive of the same episodes on this goroutine.
	a, err := s.driveSlots(cfg, slots, b.records, o)
	if err != nil {
		return nil, err
	}
	out.check("direct-drive-equals-campaign", a.mismatch)

	// (C) the campaign again with telemetry collecting.
	c, delta, err := pass(slots, true)
	if err != nil {
		return nil, err
	}

	// (D) an ordinary measured round at full parallelism, on half the
	// missions to keep the traced run short.
	half := cfg
	half.Missions = (cfg.Missions + 1) / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	d, err := s.round(half, o.tmp, rigOpts{parallelism: o.nproc})
	if err != nil {
		return nil, err
	}
	gc1, cpu1 := gcCPUSeconds(), cpuTime()
	runtime.ReadMemStats(&m1)

	self := selfTimes(a.spans)
	durs := durations(a.spans)
	perFrame := func(name string) float64 { return float64(self[name]) / 1e3 / frames }
	perEpisode := func(name string) float64 { return float64(self[name]) / 1e3 / float64(len(slots)) }
	withPercentiles := func(name string) {
		t := summarize(durs[name])
		out.add(name+"_us", perFrame(name))
		out.add(name+"_us_p50", t.p50)
		out.add(name+"_us_p99", t.tail)
		out.notef("%s: per call p50 %.2f us, p%g %.2f us over %d calls", name, t.p50, t.tailP, t.tail, t.n)
	}

	withPercentiles(spanObserve)
	out.add("render.render_us", ratio(float64(a.shadow.renderNs)/1e3, float64(a.shadow.calls)))
	out.add("sensors.lidar_us", ratio(float64(a.shadow.lidarNs)/1e3, float64(a.shadow.calls)))
	out.add("sim.observe_allocs", a.probes.observeAllocs)
	out.add("sim.observe_alloc_kb", a.probes.observeKB)
	withPercentiles(spanAct)
	out.add("agent.act_allocs", a.probes.actAllocs)
	out.add("agent.act_alloc_kb", a.probes.actKB)
	out.add("render.quantize_us", perFrame(spanQuantize))
	out.add("render.quantize_alloc_kb", a.probes.quantizeKB)
	withPercentiles(spanInject)
	out.add("fault.setup_us", perEpisode(spanFaultSetup))
	withPercentiles(spanStep)
	out.add("sim.step_allocs", a.probes.stepAllocs)
	out.add("safety.aeb_us", perFrame(spanAEB))
	out.add("sim.new_episode_us", perEpisode(spanNewEpisode))
	out.add("agent.clone_us", perEpisode(spanClone))
	out.add("trace.frames", frames)

	// Attributed time is every layer span; the slot spans' self time is the
	// harness's own and stays out.
	var attributed int64
	for name, ns := range self {
		if name != spanSlot {
			attributed += ns
		}
	}
	serialUS := float64(b.wall.Microseconds()) / frames
	out.add("campaign.serial_us_per_frame", serialUS)
	out.add("campaign.coverage", float64(attributed)/float64(b.wall.Nanoseconds()))
	out.add("campaign.residual_us_per_frame", serialUS-float64(attributed)/1e3/frames)
	out.add("campaign.parallel_eff",
		(float64(d.frames)/d.wall.Seconds())/(float64(o.nproc)*frames/b.wall.Seconds()))
	out.notef("direct drive: %d episodes, %d frames, %.2f s in layer calls, %.2f s harness; campaign serial %.2f s, at %d workers %.2f s for %d frames",
		len(slots), b.frames, float64(attributed)/1e9, float64(self[spanSlot])/1e9, b.wall.Seconds(), o.nproc, d.wall.Seconds(), d.frames)

	for _, phase := range []string{"queue_wait", "dispatch", "open", "result", "sink"} {
		series := `avfi_campaign_phase_seconds_%s{phase="` + phase + `"}`
		out.add("campaign."+phase+"_us",
			1e6*ratio(delta[fmt.Sprintf(series, "sum")], delta[fmt.Sprintf(series, "count")]))
	}
	cframes := float64(c.frames)
	out.add("transport.bytes_per_frame", delta["avfi_transport_bytes_sent_total"]/cframes)
	out.add("transport.msgs_per_frame", delta["avfi_transport_msgs_sent_total"]/cframes)
	out.add("transport.writev_batch_mean", ratio(delta["avfi_transport_writev_batch_size_sum"], delta["avfi_transport_writev_batch_size_count"]))
	out.add("transport.buf_hit_ratio", ratio(delta["avfi_transport_buf_hits_total"], delta["avfi_transport_buf_gets_total"]))
	keys, deltas := delta[`avfi_frames_encoded_total{kind="key"}`], delta[`avfi_frames_encoded_total{kind="delta"}`]
	out.add("proto.delta_ratio", ratio(deltas, keys+deltas))
	out.add("proto.encoded_bytes_per_frame", delta["avfi_frames_encoded_bytes_total"]/cframes)
	out.add("proto.compression", ratio(delta["avfi_frames_raw_bytes_total"], delta["avfi_frames_encoded_bytes_total"]))
	out.add("simclient.open_batch_mean", ratio(delta["avfi_client_open_batch_size_sum"], delta["avfi_client_open_batch_size_count"]))
	out.add("simclient.sessions_failed", delta["avfi_client_sessions_failed_total"])
	out.add("simserver.sessions_failed", delta["avfi_server_sessions_failed_total"])
	out.add("campaign.retries", delta["avfi_campaign_retries_total"])
	out.add("campaign.replacements", delta["avfi_campaign_engine_replacements_total"])
	out.add("telemetry.overhead_pct", 100*(c.wall.Seconds()-b.wall.Seconds())/b.wall.Seconds())

	out.add("runtime.alloc_kb_per_frame", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(d.frames))
	out.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	out.add("runtime.gc_cpu_pct", 100*ratio(gc1-gc0, (cpu1-cpu0).Seconds()))

	rp, err := probeRecords(o)
	if err != nil {
		return nil, err
	}
	out.check("records-probe", rp.err)
	out.add("campaign.records_write_ns", rp.writeNs)
	out.add("campaign.records_merge_ns", rp.mergeNs)
	out.add("campaign.records_resume_ns", rp.resumeNs)
	out.add("campaign.records_bytes_per_record", rp.bytesPerRecord)

	// The training split does not apply to a campaign.
	addTrainLayers(out, trainLayers{})

	out.simFrames, out.episodes = b.frames, len(slots)
	if o.spans != "" {
		if err := writeSpans(o.spans, a.spans); err != nil {
			return nil, err
		}
		out.notef("wrote %d spans to %s", len(a.spans), o.spans)
	}
	return out, nil
}

// driven is pass A's result.
type driven struct {
	spans    []span
	shadow   shadow
	probes   probes
	mismatch error // nil when every direct-drive record equals the campaign's
}

// driveSlots runs pass A: every slot through directDrive, seeded from the
// campaign's own record of it, and compared with that record.
func (s *shape) driveSlots(cfg avfi.CampaignConfig, slots []slot, campaign []avfi.EpisodeRecord, o runOpts) (*driven, error) {
	// A rig only for its world, agent and missions: the campaign is never run.
	r, err := s.setup(cfg, o.tmp, rigOpts{parallelism: 1, local: true})
	if err != nil {
		return nil, err
	}
	defer r.close()
	world, base, missions := r.runner.World(), r.runner.Agent(), r.runner.Missions()
	lidar := worldLidar(world)
	cells := cellsOf(cfg)

	byKey := make(map[slotKey]avfi.EpisodeRecord, len(campaign))
	for _, rec := range campaign {
		byKey[slotKey{rec.Injector, rec.Mission, rec.Repetition}] = rec
	}
	out := &driven{}
	tr := newTracer()
	var firstEp avfi.EpisodeConfig
	for i, sl := range slots {
		cl := cells[sl.cell]
		want, ok := byKey[slotKey{cl.key, sl.mission, sl.rep}]
		if !ok {
			return nil, fmt.Errorf("%s: campaign logged no record for %s m%d r%d", s.name, cl.key, sl.mission, sl.rep)
		}
		job := driveJob{id: i, cell: cl, mission: sl.mission, rep: sl.rep, ep: avfi.EpisodeConfig{
			From: missions[sl.mission][0], To: missions[sl.mission][1],
			Seed:    want.Seed,
			Weather: cl.weather, NumNPCs: cl.npcs, NumPedestrians: cl.peds,
		}}
		if i == 0 {
			firstEp = job.ep
		}
		got, err := directDrive(tr, world, base, lidar, job, &out.shadow)
		if err != nil {
			return nil, err
		}
		if !sameRecord(got, want) && out.mismatch == nil {
			out.mismatch = fmt.Errorf("%s m%d r%d: direct drive %+v, campaign %+v", cl.key, sl.mission, sl.rep, got, want)
		}
	}
	out.spans = tr.spans
	out.probes, err = probeLayers(world, base, firstEp)
	return out, err
}

type slotKey struct {
	injector     string
	mission, rep int
}

// sameRecord compares two records field by field; a nil and an empty
// violation list are the same.
func sameRecord(a, b avfi.EpisodeRecord) bool {
	if len(a.Violations) != len(b.Violations) {
		return false
	}
	a.Violations, b.Violations = append([]avfi.ViolationRecord{}, a.Violations...), append([]avfi.ViolationRecord{}, b.Violations...)
	return reflect.DeepEqual(a, b)
}

// traceTrain is the training workload's traced run.
func traceTrain(t *trainShape, o runOpts) (*outcome, error) {
	out := &outcome{workload: t.name}
	spec := avfi.DefaultPretrainSpec()
	spec.Missions, spec.Train.Epochs = t.missions, t.epochs
	if o.smoke {
		spec.Missions, spec.Train.Epochs = t.smokeMissions, t.smokeEpochs
	}
	spec.Agent.Seed, spec.Train.Seed = o.seed, o.seed
	world, err := avfi.NewWorld(avfi.DefaultWorldConfig())
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	tl, err := traceTrainLayers(world, spec)
	if err != nil {
		return nil, err
	}
	gc1, cpu1 := gcCPUSeconds(), cpuTime()
	runtime.ReadMemStats(&m1)
	out.attempted = spec.Train.Epochs

	// Only the training split and the runtime figures apply to training;
	// the campaign's layers read zero.
	applies := map[string]float64{
		"runtime.alloc_kb_per_frame": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(tl.demoFrames),
		"runtime.gc_cycles":          float64(m1.NumGC - m0.NumGC),
		"runtime.gc_cpu_pct":         100 * ratio(gc1-gc0, (cpu1-cpu0).Seconds()),
	}
	for _, m := range perLayerMetrics {
		if !strings.HasPrefix(m.name, "agent.collect") && !strings.HasPrefix(m.name, "agent.train") && m.name != "agent.dataset_samples" {
			out.add(m.name, applies[m.name])
		}
	}
	addTrainLayers(out, tl)
	out.notef("collected %d samples (%d demonstration frames) in %.2f s, trained %d epochs in %.2f s",
		tl.samples, tl.demoFrames, tl.collect.Seconds(), spec.Train.Epochs, tl.train.Seconds())
	return out, nil
}

// addTrainLayers appends the training split's metrics.
func addTrainLayers(out *outcome, tl trainLayers) {
	epochs := float64(out.attempted)
	out.add("agent.collect_us_per_frame", ratio(float64(tl.collect.Microseconds()), float64(tl.demoFrames)))
	out.add("agent.train_us_per_sample", ratio(float64(tl.train.Microseconds()), float64(tl.samples)*epochs))
	out.add("agent.train_alloc_kb_per_sample", ratio(tl.trainAllocKB, float64(tl.samples)*epochs))
	out.add("agent.dataset_samples", float64(tl.samples))
}

// recordsProbe is the record-pipeline micro-probe's result.
type recordsProbe struct {
	writeNs, mergeNs, resumeNs, bytesPerRecord float64
	err                                        error // an output check that did not hold
}

// probeRecords pushes seed-generated records through the durable record
// pipeline at a scale no campaign here reaches: the binary sink into four
// shard logs, MergeRecords over them, and a ResumeFrom campaign that must
// dispatch nothing and fold every record into its reports. A guard rail
// for simplifying the record formats; predicted flat.
func probeRecords(o runOpts) (recordsProbe, error) {
	const shards, missions = 4, 10
	columns := injectors(avfi.NoInject, "gaussian", "outputdelay", "gpsdrift")
	reps := 5000
	if o.smoke {
		reps = 50
	}
	n := len(columns) * missions * reps
	var p recordsProbe

	dir, err := os.MkdirTemp(o.tmp, "records-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	rnd := rand.New(rand.NewPCG(o.seed, 0x7265636f726473)) // "records"
	kinds := []string{"lane", "curb", "collision-static", "collision-vehicle", "collision-pedestrian"}
	recs := make([]avfi.EpisodeRecord, 0, n)
	for _, col := range columns {
		for m := 0; m < missions; m++ {
			for r := 0; r < reps; r++ {
				rec := avfi.EpisodeRecord{
					Injector: col.Name, Mission: m, Repetition: r, Seed: rnd.Uint64(),
					Success: rnd.IntN(2) == 0, DistanceKM: rnd.Float64(), DurationSec: 100 * rnd.Float64(),
				}
				for v := rnd.IntN(3); v > 0; v-- {
					k := rnd.IntN(len(kinds))
					rec.Violations = append(rec.Violations, avfi.ViolationRecord{Kind: kinds[k], TimeSec: 100 * rnd.Float64(), Accident: k >= 2})
				}
				recs = append(recs, rec)
			}
		}
	}
	// Arrival order is completion order, not grid order.
	rnd.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

	files := make([]*os.File, shards)
	sinks := make([]avfi.RecordSink, shards)
	for i := range files {
		if files[i], err = os.Create(filepath.Join(dir, avfi.BinaryShardLogName(i))); err != nil {
			return p, err
		}
		defer files[i].Close()
		sinks[i] = avfi.NewBinarySink(files[i])
	}
	t0 := time.Now()
	for i, rec := range recs {
		if err := sinks[i%shards].Consume(rec); err != nil {
			return p, err
		}
	}
	var size int64
	for i, sink := range sinks {
		if err := sink.Close(); err != nil {
			return p, err
		}
		st, err := files[i].Stat()
		if err != nil {
			return p, err
		}
		size += st.Size()
	}
	p.writeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	p.bytesPerRecord = float64(size) / float64(n)

	sources := make([]io.Reader, shards)
	for i, f := range files {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return p, err
		}
		sources[i] = f
	}
	t0 = time.Now()
	merged, err := avfi.MergeRecords(io.Discard, avfi.FormatBinary, sources...)
	if err != nil {
		return p, err
	}
	p.mergeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	if merged != n {
		p.err = fmt.Errorf("merged %d of %d generated records", merged, n)
		return p, nil
	}

	stream, err := avfi.OpenRecordsPath(dir)
	if err != nil {
		return p, err
	}
	defer stream.Close()
	a, err := tinyAgent()
	if err != nil {
		return p, err
	}
	runner, err := avfi.NewCampaign(avfi.CampaignConfig{
		World: tinyWorld(), Agent: avfi.AgentSource{Agent: a},
		Injectors: columns, Missions: missions, Repetitions: reps,
		ResumeFrom: stream, DiscardRecords: true, Parallelism: 1, Seed: o.seed,
	})
	if err != nil {
		return p, err
	}
	t0 = time.Now()
	rs, err := runner.Run()
	if err != nil {
		return p, err
	}
	p.resumeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	folded := 0
	for _, rep := range rs.Reports {
		folded += rep.Episodes
	}
	if rs.Engine.Episodes != 0 || folded != n {
		p.err = fmt.Errorf("resumed campaign dispatched %d episodes and folded %d of %d records", rs.Engine.Episodes, folded, n)
	}
	return p, nil
}
