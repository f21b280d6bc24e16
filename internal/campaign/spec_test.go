package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/avfi/avfi/internal/agent"
)

// FuzzCampaignSpec decodes arbitrary bytes as a POST /campaigns body, the
// way the service does, and lowers the spec: Lower never panics, and a
// spec it accepts yields a Config that Validate accepts once the caller's
// share (world, agent) is filled in. Seeds are the specs service_test.go
// submits, plus adaptive specs Lower must refuse.
func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		`{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"seed":3}`,
		`{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"seed":9,"adaptive":{"policy":"uniform","budget":4}}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"bogus_field":1}`,
		`{"missions":1,"repetitions":1}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"weather":"hail"}`,
		`{"injectors":["definitely-not-registered"],"missions":1,"repetitions":1}`,
		`{"injectors":["noinject"],"repetitions":1}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"adaptive":{"policy":"nonsense"}}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"matrix":{"densities":["lots"]}}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"matrix":{"densities":["8x4junk"]}}`,
		`{"injectors":["taxonomy"],"missions":1,"repetitions":1}`,
		`{"injectors":["class:sensor","all"],"missions":1,"repetitions":1,"npcs":4,"pedestrians":2,"aeb":true,"max_retries":2}`,
		`{"injectors":["noinject"],"missions":1,"repetitions":1,"matrix":{"weathers":["rain","fog"],"densities":["10x4"],"aeb":"both","activation_frames":[0,30]}}`,
		// Adaptive specs Lower refuses: negative budget, negative round
		// size, and injector columns that share a key.
		`{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"adaptive":{"policy":"ucb","budget":-1}}`,
		`{"injectors":["noinject","gaussian"],"missions":2,"repetitions":2,"adaptive":{"policy":"halving","round_size":-1}}`,
		`{"injectors":["gaussian","gaussian"],"missions":2,"repetitions":2,"adaptive":{"policy":"uniform"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec CampaignSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cfg, err := spec.Lower()
		if err != nil {
			return
		}
		cfg.World, cfg.Agent = tinyWorldConfig(), AgentSource{Pretrain: &agent.PretrainSpec{}}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Lower accepted %s, Validate refuses it: %v", body, err)
		}
	})
}
