// Central registration of every AVFI instrument. Names live here and
// nowhere else, so the exported metric set is stable, collision-checked
// at init, and pinned by a golden test. Naming scheme:
// avfi_<subsystem>_<quantity>_<unit>, counters suffixed _total,
// histogram units in seconds.
package telemetry

// Transport: the byte pipe under every engine connection.
var (
	TransportBytesSent = Default.Counter("avfi_transport_bytes_sent_total",
		"Bytes written to transport connections, including frame headers.")
	TransportBytesRecv = Default.Counter("avfi_transport_bytes_recv_total",
		"Bytes read from transport connections, including frame headers.")
	TransportMsgsSent = Default.Counter("avfi_transport_msgs_sent_total",
		"Messages written to transport connections.")
	TransportMsgsRecv = Default.Counter("avfi_transport_msgs_recv_total",
		"Messages read from transport connections.")
	TransportBufGets = Default.Counter("avfi_transport_buf_gets_total",
		"Receive-buffer requests served by the transport pool.")
	TransportBufHits = Default.Counter("avfi_transport_buf_hits_total",
		"Receive-buffer requests satisfied by a recycled buffer of sufficient capacity.")
	TransportBufRecycles = Default.Counter("avfi_transport_buf_recycles_total",
		"Buffers returned to the transport pool via Recycle.")
)

// Frame codec: delta negotiation and wire cost. The compression ratio
// is derived at scrape time as encoded bytes over raw pixel bytes.
var (
	FramesEncodedKey = Default.Counter("avfi_frames_encoded_total",
		"Sensor frames encoded, by wire kind.", "kind", "key")
	FramesEncodedDelta = Default.Counter("avfi_frames_encoded_total",
		"Sensor frames encoded, by wire kind.", "kind", "delta")
	FramesDecodedKey = Default.Counter("avfi_frames_decoded_total",
		"Sensor frames decoded, by wire kind.", "kind", "key")
	FramesDecodedDelta = Default.Counter("avfi_frames_decoded_total",
		"Sensor frames decoded, by wire kind.", "kind", "delta")
	FramesEncodedBytes = Default.Counter("avfi_frames_encoded_bytes_total",
		"Encoded frame bytes produced (envelope included).")
	FramesRawBytes = Default.Counter("avfi_frames_raw_bytes_total",
		"Raw pixel payload bytes covered by encoded frames (compression denominator).")
)

// Simulator client/server: session lifecycle on both ends of the wire.
var (
	ClientSessionsOpened = Default.Counter("avfi_client_sessions_opened_total",
		"Episode sessions opened by simulator clients.")
	ClientSessionsCompleted = Default.Counter("avfi_client_sessions_completed_total",
		"Episode sessions completed by simulator clients.")
	ClientSessionsFailed = Default.Counter("avfi_client_sessions_failed_total",
		"Episode sessions that died under simulator clients (server error or lost connection).")
	ClientInFlight = Default.Gauge("avfi_client_sessions_in_flight",
		"Episode sessions currently multiplexed on client connections.")
	ServerSessionsOpened = Default.Counter("avfi_server_sessions_opened_total",
		"Episode sessions opened by simulator servers.")
	ServerSessionsCompleted = Default.Counter("avfi_server_sessions_completed_total",
		"Episode sessions run to completion by simulator servers.")
	ServerSessionsFailed = Default.Counter("avfi_server_sessions_failed_total",
		"Episode sessions that failed on simulator servers.")
	ServerInFlight = Default.Gauge("avfi_server_sessions_in_flight",
		"Episode sessions currently live on simulator servers.")
	WorkerConns = Default.Counter("avfi_worker_conns_total",
		"Connections accepted by standalone simulator workers.")
	WorkerActiveConns = Default.Gauge("avfi_worker_conns_active",
		"Connections currently served by standalone simulator workers.")
)

// Campaign: per-phase episode spans (queue-wait -> dispatch -> open ->
// frames -> result -> sink), episode totals, and fleet health.
var (
	PhaseQueueWait = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "queue_wait")
	PhaseDispatch = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "dispatch")
	PhaseOpen = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "open")
	PhaseFrames = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "frames")
	PhaseResult = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "result")
	PhaseSink = Default.Histogram("avfi_campaign_phase_seconds",
		"Episode phase latency.", LatencyBuckets, "phase", "sink")
	EpisodeSeconds = Default.Histogram("avfi_campaign_episode_seconds",
		"Wall-clock duration of completed episodes (dispatch through result).", LatencyBuckets)
	CampaignEpisodes = Default.Counter("avfi_campaign_episodes_total",
		"Episodes completed by campaign runners.")
	CampaignRetries = Default.Counter("avfi_campaign_retries_total",
		"Episode attempts retried after a transient engine failure.")
	CampaignReplacements = Default.Counter("avfi_campaign_engine_replacements_total",
		"Dead pool engine slots redialed mid-campaign, failed redials included.")
	CampaignSinkQueue = Default.Gauge("avfi_campaign_sink_queue_depth",
		"Episode records enqueued to sink shards and not yet drained.")
)

// Campaign service: the long-lived control plane — worker registry churn
// and campaign lifecycle. Per-campaign episode counters are registered
// dynamically at submit time (avfi_service_campaign_episodes_total with a
// campaign label), so they are not listed here.
var (
	ServiceWorkers = Default.Gauge("avfi_service_workers",
		"Workers currently registered with the campaign service.")
	ServiceWorkersUp = Default.Gauge("avfi_service_workers_up",
		"Registered workers currently serving at least one live engine slot.")
	ServiceWorkerDials = Default.Counter("avfi_service_worker_dials_total",
		"Worker dial attempts by the campaign service (announce-time and periodic re-dials).")
	ServiceWorkerDialFailures = Default.Counter("avfi_service_worker_dial_failures_total",
		"Worker dial attempts that failed (connection refused, world mismatch, timeout).")
	ServiceCampaignsSubmitted = Default.Counter("avfi_service_campaigns_submitted_total",
		"Campaigns accepted by the service's submit API.")
	ServiceCampaignsActive = Default.Gauge("avfi_service_campaigns_active",
		"Submitted campaigns currently running.")
	ServiceCampaignsDone = Default.Counter("avfi_service_campaigns_finished_total",
		"Campaigns finished, by terminal state.", "state", "done")
	ServiceCampaignsFailed = Default.Counter("avfi_service_campaigns_finished_total",
		"Campaigns finished, by terminal state.", "state", "failed")
)
