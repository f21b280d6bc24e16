package agent

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/avfi/avfi/internal/nn"
	"github.com/avfi/avfi/internal/tensor"
	"github.com/avfi/avfi/internal/world"
)

// savedFile saves a and decodes the file's envelope for editing.
func savedFile(t *testing.T, a *Agent) fileFormat {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ff fileFormat
	if err := gob.NewDecoder(&buf).Decode(&ff); err != nil {
		t.Fatal(err)
	}
	return ff
}

// editSpecs rewrites the layer specs of one component of ff.
func editSpecs(t *testing.T, ff *fileFormat, component string, edit func([]nn.LayerSpec) []nn.LayerSpec) {
	t.Helper()
	var specs []nn.LayerSpec
	if err := gob.NewDecoder(bytes.NewReader(ff.Components[component])).Decode(&specs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(edit(specs)); err != nil {
		t.Fatal(err)
	}
	ff.Components[component] = buf.Bytes()
}

// loadAndAct loads the file ff and, if that succeeds, drives the agent one
// frame, turning a panic anywhere into an error.
func loadAndAct(ff fileFormat) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ff); err != nil {
		return err
	}
	a, err := Load(&buf)
	if err != nil {
		return err
	}
	if _, err := a.Act(tinyImage(1, ff.Cfg.ImageW, ff.Cfg.ImageH), 5, world.TurnFollow); err != nil {
		return fmt.Errorf("loaded, then Act: %w", err)
	}
	return fmt.Errorf("loaded and drove")
}

// TestLoadRejectsMalformedFiles: a file whose weights do not fit the
// architecture its own config builds is refused by Load with an error that
// names the component, typed nn.ErrBadSpec where the weights are at fault,
// and nothing panics, at Load or at a following Act.
func TestLoadRejectsMalformedFiles(t *testing.T) {
	a, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	left := "head-" + world.TurnLeft.String()
	for _, tc := range []struct {
		name    string
		edit    func(*fileFormat)
		badSpec bool
		want    string
	}{
		{"config FeatDim against the weights", func(ff *fileFormat) { ff.Cfg.FeatDim /= 2 }, true, "load trunk"},
		{"another kind spliced into trunk", func(ff *fileFormat) {
			editSpecs(t, ff, "trunk", func(s []nn.LayerSpec) []nn.LayerSpec {
				s[1] = nn.LayerSpec{Kind: "tanh"}
				return s
			})
		}, true, `load trunk: nn: load layer 1`},
		// A file saved by an agent with a recurrent cell after the trunk:
		// gob drops its UseRNN and RNNHidden config fields without error,
		// so the trunk's extra layer is what must refuse it.
		{"extra layer in trunk", func(ff *fileFormat) {
			editSpecs(t, ff, "trunk", func(s []nn.LayerSpec) []nn.LayerSpec {
				return append(s, nn.LayerSpec{Kind: "rnncell", Ints: map[string]int{"in": tinyConfig().FeatDim, "hidden": 6}})
			})
		}, true, "load trunk: nn: bad layer spec: 8 layers, want 7"},
		{"missing head", func(ff *fileFormat) { delete(ff.Components, left) }, false, fmt.Sprintf("missing component %q", left)},
		{"extra component", func(ff *fileFormat) { ff.Components["head-reverse"] = ff.Components[left] }, false, `unknown component "head-reverse"`},
		{"tensor of the wrong shape", func(ff *fileFormat) {
			editSpecs(t, ff, "meas", func(s []nn.LayerSpec) []nn.LayerSpec {
				s[0].Tensors["weight"] = tensor.New(tinyConfig().MeasDim, 1)
				return s
			})
		}, true, `load meas: nn: load layer 0`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := savedFile(t, a)
			tc.edit(&ff)
			err := loadAndAct(ff)
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, nn.ErrBadSpec) != tc.badSpec {
				t.Fatalf("err = %v, want one containing %q (wrapping nn.ErrBadSpec: %v)", err, tc.want, tc.badSpec)
			}
		})
	}
}
