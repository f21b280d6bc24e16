package telemetry

import (
	"reflect"
	"testing"
)

// TestGoldenMetricNames pins the exported metric set. Dashboards and
// scrape configs key on these exact names, so a rename must show up in
// this diff and be deliberate — update the list alongside the metric.
func TestGoldenMetricNames(t *testing.T) {
	want := []string{
		"avfi_campaign_engine_replacements_total",
		"avfi_campaign_episode_seconds",
		"avfi_campaign_episodes_total",
		`avfi_campaign_phase_seconds{phase="dispatch"}`,
		`avfi_campaign_phase_seconds{phase="frames"}`,
		`avfi_campaign_phase_seconds{phase="open"}`,
		`avfi_campaign_phase_seconds{phase="queue_wait"}`,
		`avfi_campaign_phase_seconds{phase="result"}`,
		`avfi_campaign_phase_seconds{phase="sink"}`,
		"avfi_campaign_retries_total",
		"avfi_campaign_sink_queue_depth",
		"avfi_client_sessions_completed_total",
		"avfi_client_sessions_failed_total",
		"avfi_client_sessions_in_flight",
		"avfi_client_sessions_opened_total",
		`avfi_frames_decoded_total{kind="delta"}`,
		`avfi_frames_decoded_total{kind="key"}`,
		"avfi_frames_encoded_bytes_total",
		`avfi_frames_encoded_total{kind="delta"}`,
		`avfi_frames_encoded_total{kind="key"}`,
		"avfi_frames_raw_bytes_total",
		"avfi_server_sessions_completed_total",
		"avfi_server_sessions_failed_total",
		"avfi_server_sessions_in_flight",
		"avfi_server_sessions_opened_total",
		"avfi_service_campaigns_active",
		`avfi_service_campaigns_finished_total{state="done"}`,
		`avfi_service_campaigns_finished_total{state="failed"}`,
		"avfi_service_campaigns_submitted_total",
		"avfi_service_worker_dial_failures_total",
		"avfi_service_worker_dials_total",
		"avfi_service_workers",
		"avfi_service_workers_up",
		"avfi_transport_buf_gets_total",
		"avfi_transport_buf_hits_total",
		"avfi_transport_buf_recycles_total",
		"avfi_transport_bytes_recv_total",
		"avfi_transport_bytes_sent_total",
		"avfi_transport_msgs_recv_total",
		"avfi_transport_msgs_sent_total",
		"avfi_worker_conns_active",
		"avfi_worker_conns_total",
	}
	got := Default.Names()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported metric set changed.\ngot:\n  %q\nwant:\n  %q", got, want)
	}
}
