package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// runErr runs avfi with args, discarding its output.
func runErr(args ...string) error {
	return run(context.Background(), args, io.Discard, io.Discard)
}

// TestDispatch: the command word is required and must be known — the old
// bare-flag form included — and each command accepts only its own flags.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no command"},
		{[]string{"frobnicate"}, `unknown command "frobnicate"`},
		{[]string{"-injectors", "noinject"}, `unknown command "-injectors"`},
		{[]string{"serve", "-matrix", "127.0.0.1:0"}, "flag provided but not defined: -matrix"},
		{[]string{"service", "-status-addr", ":0", "127.0.0.1:0"}, "flag provided but not defined: -status-addr"},
		{[]string{"serve"}, "want 1 argument"},
		{[]string{"serve", "127.0.0.1:0", "-join", "http://x"}, "want 1 argument"},
		{[]string{"list", "extra"}, "want 0 argument"},
	} {
		err := runErr(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("avfi %q: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRunRejectsIgnoredAndMalformedFlags: a flag the chosen mode would
// ignore, and a malformed matrix value, fail before the agent is loaded,
// naming the flag or the value. (The agent path does not exist, so a
// regression fails fast with the wrong error instead of training.)
func TestRunRejectsIgnoredAndMalformedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-weathers", "rain"}, "-weathers needs -matrix"},
		{[]string{"-densities", "8x4"}, "-densities needs -matrix"},
		{[]string{"-aeb", "on"}, "-aeb needs -matrix"},
		{[]string{"-activations", "30"}, "-activations needs -matrix"},
		{[]string{"-matrix", "-weather", "rain"}, "-weather sets the flat grid"},
		{[]string{"-matrix", "-npcs", "2"}, "-npcs sets the flat grid"},
		{[]string{"-matrix", "-peds", "1"}, "-peds sets the flat grid"},
		{[]string{"-policy", "ucb"}, "-policy needs -adaptive"},
		{[]string{"-budget", "8"}, "-budget needs -adaptive"},
		{[]string{"-round", "4"}, "-round needs -adaptive"},
		{[]string{"-matrix", "-densities", "8x4junk"}, `"8x4junk"`},
		{[]string{"-matrix", "-activations", "3.5"}, `"3.5"`},
		{[]string{"-matrix", "-activations", "0,30abc"}, `"30abc"`},
	} {
		args := append([]string{"run", "-agent", "absent.avfi", "-injectors", "noinject", "-missions", "1", "-reps", "1"}, tc.args...)
		err := runErr(args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("avfi %q: err = %v, want one containing %q", args, err, tc.want)
		}
	}
}

// TestFiguresRejectsUnknownFigure: a mistyped figure fails listing the
// valid ones instead of running nothing, and -frames is refused where
// Figure 4 does not run.
func TestFiguresRejectsUnknownFigure(t *testing.T) {
	if err := runErr("figures", "-agent", "absent.avfi", "-fig", "5"); err == nil || !strings.Contains(err.Error(), "want 2, 3, 4, or 0") {
		t.Errorf("figures -fig 5: err = %v, want the valid figures listed", err)
	}
	if err := runErr("figures", "-agent", "absent.avfi", "-fig", "2", "-frames", "0,5"); err == nil || !strings.Contains(err.Error(), "-frames") {
		t.Errorf("figures -fig 2 -frames: err = %v, want -frames refused", err)
	}
	if err := runErr("figures", "-agent", "absent.avfi", "-fig", "4", "-frames", "0,x"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("figures -frames 0,x: err = %v, want the bad value named", err)
	}
}

// TestAblateRejectsUnknownSweep: a mistyped sweep fails listing the valid
// ones instead of running nothing.
func TestAblateRejectsUnknownSweep(t *testing.T) {
	err := runErr("ablate", "-agent", "absent.avfi", "-sweep", "gausian")
	if err == nil {
		t.Fatal("ablate -sweep gausian accepted")
	}
	for _, want := range []string{"gausian", "gaussian", "saltpepper", "weightnoise", "hardware", "aeb", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ablate -sweep gausian: err = %v, want it to mention %q", err, want)
		}
	}
}
