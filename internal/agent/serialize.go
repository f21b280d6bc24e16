package agent

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"slices"
)

// fileFormat is the on-disk envelope: config plus each component network's
// serialized bytes.
type fileFormat struct {
	Cfg        Config
	Components map[string][]byte
}

// Save writes the agent (config + all weights) to w.
func (a *Agent) Save(w io.Writer) error {
	ff := fileFormat{Cfg: a.cfg, Components: make(map[string][]byte)}
	for name, net := range a.Networks() {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			return fmt.Errorf("agent: save %s: %w", name, err)
		}
		ff.Components[name] = buf.Bytes()
	}
	if err := gob.NewEncoder(w).Encode(ff); err != nil {
		return fmt.Errorf("agent: save: %w", err)
	}
	return nil
}

// Load reads an agent saved with Save. It builds the architecture that the
// file's config describes, as New does, and fills it with the file's
// weights, one component at a time: trunk, meas, then the heads in command
// order. A component missing from the file, one the architecture lacks, or
// weights that do not fit their component (nn.ErrBadSpec) fail the load.
func Load(r io.Reader) (*Agent, error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("agent: load: %w", err)
	}
	a, err := New(ff.Cfg)
	if err != nil {
		return nil, fmt.Errorf("agent: load: %w", err)
	}
	nets := a.Networks()
	for _, name := range slices.Sorted(maps.Keys(ff.Components)) {
		if nets[name] == nil {
			return nil, fmt.Errorf("agent: load: unknown component %q", name)
		}
	}
	names := []string{"trunk", "meas"}
	for _, cmd := range commands {
		names = append(names, "head-"+cmd.String())
	}
	for _, name := range names {
		raw, ok := ff.Components[name]
		if !ok {
			return nil, fmt.Errorf("agent: load: missing component %q", name)
		}
		if err := nets[name].LoadWeights(bytes.NewReader(raw)); err != nil {
			return nil, fmt.Errorf("agent: load %s: %w", name, err)
		}
	}
	return a, nil
}
