package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"

	"github.com/avfi/avfi"
)

// The campaign workloads drive one committed pretrained agent (the output
// of `avfi-train -eval 0`, see regen-agent.sh), so both sides of a later
// A/B run identical weights and no run pays for training.
var (
	//go:embed testdata/agent-default.avfi
	defaultAgentFile []byte
	//go:embed testdata/agent-default.sha256
	defaultAgentSHA256 string
)

// defaultAgentParams is the default agent architecture's parameter count.
const defaultAgentParams = 158244

// loadDefaultAgent decodes the embedded model. A failure here is an
// output-check failure: a model-file format break is user-visible.
func loadDefaultAgent() (*avfi.Agent, error) {
	sum := sha256.Sum256(defaultAgentFile)
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(defaultAgentSHA256); got != want {
		return nil, fmt.Errorf("embedded agent: sha256 %s, want %s", got, want)
	}
	a, err := avfi.LoadAgent(bytes.NewReader(defaultAgentFile))
	if err != nil {
		return nil, fmt.Errorf("embedded agent: %w", err)
	}
	if n := a.ParamCount(); n != defaultAgentParams {
		return nil, fmt.Errorf("embedded agent: %d parameters, want %d", n, defaultAgentParams)
	}
	return a, nil
}
