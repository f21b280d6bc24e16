package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/avfi/avfi/internal/metrics"
	"github.com/avfi/avfi/internal/telemetry"
)

// RecordSink consumes episode records as they complete, in completion
// order. The campaign funnels all records through a single aggregation
// goroutine, so implementations need not be safe for concurrent use. Close
// is called once, when the campaign ends or aborts, even after a Consume
// error — so the log's tail is flushed whether the run succeeded or not.
// (The one exception: a sink wedged inside a blocking Consume while the
// campaign aborts is abandoned after a grace period rather than allowed to
// hang the caller.)
type RecordSink interface {
	// Consume receives one finished episode.
	Consume(rec metrics.EpisodeRecord) error
	// Close flushes the sink.
	Close() error
}

// jsonlSink writes the JSONL export (FormatJSONL.NewRecordSink): one JSON
// object per record, through a buffered writer. The caller keeps ownership
// of w: Close flushes buffering but does not close the underlying writer.
type jsonlSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

func newJSONLSink(w io.Writer) RecordSink {
	bw := bufio.NewWriter(w)
	return &jsonlSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Consume implements RecordSink.
func (s *jsonlSink) Consume(rec metrics.EpisodeRecord) error { return s.enc.Encode(rec) }

// Close implements RecordSink.
func (s *jsonlSink) Close() error { return s.bw.Flush() }

// sinkPipeline is the campaign's streaming results path: workers push
// finished episodes to aggregation shards, each of which folds its records
// into their cells' metrics.ReportBuilders, forwards them to its own
// optional RecordSink, and (unless records are discarded) retains them for
// the ResultSet. Aggregation is incremental: with DiscardRecords the
// pipeline keeps only a fixed-size per-episode digest (exact quantiles
// need that much) instead of full records, and the durable episode log
// streams through the sinks at O(1) memory.
//
// The classic shape is one shard — one goroutine, one sink, the single
// record log. Sharded campaigns (Config.ShardSinks) run one shard per sink:
// scenario cells are routed to shards round-robin in cell order, so each
// cell's builder has exactly one writer and each shard streams a disjoint
// slice of the campaign to its own log. Because records sort into a total
// schedule-independent order, MergeRecords over the shard logs reproduces
// the single log's merge byte-for-byte.
type sinkPipeline struct {
	shards []*sinkShard
	route  map[string]*sinkShard // cell key -> owning shard; read-only

	cells    []runCell
	builders map[string]*metrics.ReportBuilder // each written by one shard
	keep     bool
	seeded   []metrics.EpisodeRecord // resumed records retained for finish
	started  bool                    // start ran: shard goroutines own the builders

	mu       sync.Mutex
	err      error
	onErr    func(error) // called once, on the first sink failure
	progress func(CellProgress)
}

// sinkShard is one aggregation lane: a hand-off channel, the goroutine
// draining it, and the lane's RecordSink (may be nil).
type sinkShard struct {
	p       *sinkPipeline
	ch      chan metrics.EpisodeRecord
	done    chan struct{}
	sink    RecordSink
	broken  bool // sink failed; stop writing, keep draining
	records []metrics.EpisodeRecord
}

// newSinkPipeline builds one aggregation shard per sink (a single
// sink-less shard when sinks is empty) but does not start it: the caller
// may stream resume records through seed first, then calls start. keep
// retains records for ResultSet.Records; onErr (may be nil) is notified of
// the first sink failure so the caller can stop dispatching episodes whose
// streamed records would be lost; progress (may be nil) sees each cell's
// running aggregate as episodes land — from the cell's owning shard
// goroutine, so updates for one cell are ordered but different cells may
// report concurrently.
func newSinkPipeline(cells []runCell, sinks []RecordSink, keep bool,
	onErr func(error), progress func(CellProgress)) *sinkPipeline {
	p := &sinkPipeline{
		cells:    cells,
		builders: make(map[string]*metrics.ReportBuilder, len(cells)),
		route:    make(map[string]*sinkShard, len(cells)),
		keep:     keep,
		onErr:    onErr,
		progress: progress,
	}
	if len(sinks) == 0 {
		sinks = []RecordSink{nil}
	}
	for _, sink := range sinks {
		p.shards = append(p.shards, &sinkShard{
			p:    p,
			done: make(chan struct{}),
			sink: sink,
		})
	}
	// Cells route to shards round-robin in cell order: deterministic, and
	// balanced whenever cells outnumber shards.
	for _, c := range cells {
		if _, ok := p.builders[c.key]; !ok {
			p.builders[c.key] = metrics.NewReportBuilder(c.key)
			p.route[c.key] = p.shards[len(p.route)%len(p.shards)]
		}
	}
	return p
}

// seed pre-folds one record resumed from a prior partial run: it counts in
// reports and retention but is never re-sent to any sink and fires no
// progress hooks (it is not this run's work). Records arrive one at a time
// from a streaming RecordSource, so resume memory stays O(1) in campaign
// size unless retention (keep) is on. Must be called before start —
// builders and retention are still exclusively the caller's.
func (p *sinkPipeline) seed(rec metrics.EpisodeRecord) {
	if b, ok := p.builders[rec.Injector]; ok {
		b.Add(rec)
	}
	if p.keep {
		p.seeded = append(p.seeded, rec)
	}
}

// start launches the shard goroutines, handing them ownership of the
// builders; buffer sizes each hand-off channel. No seed calls may follow.
func (p *sinkPipeline) start(buffer int) {
	p.started = true
	for _, sh := range p.shards {
		sh.ch = make(chan metrics.EpisodeRecord, buffer)
		go sh.loop()
	}
}

// shardFor routes a record to its cell's owning shard. Records for keys
// outside the campaign's cells (impossible for runner-produced records)
// fall through to shard 0 so retention and the durable log never drop one.
func (p *sinkPipeline) shardFor(key string) *sinkShard {
	if sh, ok := p.route[key]; ok {
		return sh
	}
	return p.shards[0]
}

// fail records the pipeline's first sink error and notifies onErr once.
func (p *sinkPipeline) fail(err error) {
	p.mu.Lock()
	first := p.err == nil
	if first {
		p.err = err
	}
	onErr := p.onErr
	p.mu.Unlock()
	if first && onErr != nil {
		onErr(err)
	}
}

// loop drains the shard's channel until it closes, then closes the shard's
// sink — each shard goroutine owns its sink end to end, so the durable
// log's tail is flushed on the finish and abandon paths alike. It never
// blocks the campaign on a failed sink: the first Consume error anywhere
// is recorded, onErr is told (so the scheduler stops dispatching instead
// of burning episodes whose streamed records would be lost), and in-flight
// records keep draining.
func (sh *sinkShard) loop() {
	defer close(sh.done)
	p := sh.p
	for rec := range sh.ch {
		telemetry.CampaignSinkQueue.Add(-1)
		if b, ok := p.builders[rec.Injector]; ok {
			b.Add(rec)
			if p.progress != nil {
				mean, std, n := b.RunningVPK()
				violations, violEpisodes := b.RunningViolations()
				p.progress(CellProgress{
					Cell:              rec.Injector,
					Episodes:          n,
					MeanVPK:           mean,
					StdVPK:            std,
					Violations:        violations,
					ViolationEpisodes: violEpisodes,
				})
			}
		}
		if p.keep {
			sh.records = append(sh.records, rec)
		}
		if sh.sink != nil && !sh.broken {
			if err := sh.sink.Consume(rec); err != nil {
				sh.broken = true
				p.fail(fmt.Errorf("campaign: record sink: %w", err))
			}
		}
	}
	if sh.sink != nil {
		if err := sh.sink.Close(); err != nil {
			p.fail(fmt.Errorf("campaign: record sink: %w", err))
		}
	}
}

// consume hands one finished episode to its cell's aggregation shard. The
// hand-off aborts when ctx is cancelled, so a sink that blocks (rather
// than errors) can never wedge the campaign beyond the caller's ability to
// cancel it.
func (p *sinkPipeline) consume(ctx context.Context, rec metrics.EpisodeRecord) {
	spans := telemetry.Enabled()
	var t0 time.Time
	if spans {
		t0 = time.Now()
	}
	// The depth gauge counts the record before the hand-off so a scrape
	// never catches the shard's decrement ahead of our increment.
	telemetry.CampaignSinkQueue.Add(1)
	select {
	case p.shardFor(rec.Injector).ch <- rec:
		if spans {
			telemetry.PhaseSink.Observe(time.Since(t0).Seconds())
		}
	case <-ctx.Done():
		telemetry.CampaignSinkQueue.Add(-1)
	}
}

// abandon releases the pipeline without collecting results, giving the
// shard goroutines a bounded grace period to drain and close their sinks
// (flushing the durable logs' tails for the episodes that did finish). A
// sink wedged inside a blocking Consume exhausts the grace period and is
// left behind rather than allowed to hang the aborting campaign.
func (p *sinkPipeline) abandon() {
	if !p.started {
		// An abort before start (resume seeding or pool construction
		// failed): run the shards against empty channels so each sink is
		// still closed exactly once, honoring the RecordSink contract.
		p.start(0)
	}
	for _, sh := range p.shards {
		close(sh.ch)
	}
	deadline := time.After(5 * time.Second)
	for _, sh := range p.shards {
		select {
		case <-sh.done:
		case <-deadline:
			return
		}
	}
}

// finish closes the pipeline and returns the retained records in the
// deterministic campaign order (nil when discarded), the per-cell reports
// in configured cell order, and the first sink error (every shard has
// closed its sink by the time its done channel is signalled).
func (p *sinkPipeline) finish() ([]metrics.EpisodeRecord, []metrics.Report, error) {
	for _, sh := range p.shards {
		close(sh.ch)
	}
	records := p.seeded
	for _, sh := range p.shards {
		<-sh.done
		records = append(records, sh.records...)
	}
	// Deterministic order regardless of scheduling and sharding.
	sortRecords(records)
	var reports []metrics.Report
	for _, c := range p.cells {
		reports = append(reports, p.builders[c.key].Build())
	}
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	return records, reports, err
}

// sortRecords puts records into the campaign's deterministic,
// schedule-independent order: (column key, mission, repetition).
func sortRecords(records []metrics.EpisodeRecord) {
	sort.Slice(records, func(a, b int) bool {
		return recordLess(records[a], records[b])
	})
}

// recordLess is the canonical campaign record order — shared by sorting
// and the k-way shard merge.
func recordLess(a, b metrics.EpisodeRecord) bool {
	if a.Injector != b.Injector {
		return a.Injector < b.Injector
	}
	if a.Mission != b.Mission {
		return a.Mission < b.Mission
	}
	return a.Repetition < b.Repetition
}
