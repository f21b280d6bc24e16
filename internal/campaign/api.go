// The service's HTTP face: submit/status/results for campaigns and the
// worker announce endpoint, mounted on the telemetry endpoint's mux (see
// telemetry.Server.Handle) so one port serves the whole control plane
// alongside /metrics, /statusz and pprof.
//
//	POST /campaigns             submit a CampaignSpec       -> {"id": "c1"}
//	GET  /campaigns             list campaigns              -> [CampaignInfo]
//	GET  /campaigns/{id}         one campaign's status       -> CampaignInfo
//	GET  /campaigns/{id}/results stream records (?format=jsonl export|binary log)
//	POST /workers               announce a worker           -> WorkerInfo
//	GET  /workers               list registered workers     -> [WorkerInfo]
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Handler returns the service's HTTP API, rooted at /campaigns and
// /workers.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", s.handleCampaigns)
	mux.HandleFunc("/campaigns/", s.handleCampaign)
	mux.HandleFunc("/workers", s.handleWorkers)
	return mux
}

// writeJSON renders one API response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are gone; nothing to signal with
}

// writeError renders one API error.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleCampaigns serves POST /campaigns (submit) and GET /campaigns
// (list).
func (s *Service) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Campaigns())
	case http.MethodPost:
		var spec CampaignSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding campaign spec: %w", err))
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrServiceClosed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleCampaign serves GET /campaigns/{id} and GET
// /campaigns/{id}/results.
func (s *Service) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	switch sub {
	case "":
		info, err := s.Campaign(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case "results":
		name := r.URL.Query().Get("format")
		if name == "" {
			name = "jsonl" // the export by default; ?format=binary for a mergeable record log
		}
		format, err := ParseRecordFormat(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if _, err := s.Campaign(id); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if format == FormatJSONL {
			w.Header().Set("Content-Type", "application/jsonl")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		if err := s.WriteResults(w, id, format); err != nil {
			// Mid-body failure: the status line is sent; log and cut.
			writeError(w, http.StatusInternalServerError, err)
		}
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown resource %q", sub))
	}
}

// handleWorkers serves POST /workers (announce) and GET /workers (list).
func (s *Service) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Workers())
	case http.MethodPost:
		var req struct {
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding worker announce: %w", err))
			return
		}
		info, err := s.AddWorker(req.Addr)
		if err != nil {
			var wm *WorldMismatchError
			switch {
			case errors.As(err, &wm):
				// The worker serves a different world: announcing it again
				// cannot help, bounce it permanently.
				writeError(w, http.StatusConflict, err)
			case errors.Is(err, ErrServiceClosed):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}
