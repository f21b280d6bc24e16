package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"github.com/avfi/avfi"
)

// replay is the resume-replay output check. It drops a seed-chosen few of
// a finished campaign's records, resumes a fresh campaign from the rest on
// one in-process engine at Parallelism 1, and requires that campaign to
// run exactly the dropped episodes and reproduce their records byte for
// byte — the episode-is-a-pure-function-of-its-seeds contract, across pool
// shape and transport, through the public facade alone.
func (s *shape) replay(cfg avfi.CampaignConfig, ran *roundOut, drop int, o runOpts) error {
	if drop > len(ran.records) {
		drop = len(ran.records)
	}
	rnd := rand.New(rand.NewPCG(o.seed, 0x7265706c6179)) // "replay"
	dropped := make(map[int]bool)
	for len(dropped) < drop {
		dropped[rnd.IntN(len(ran.records))] = true
	}
	var rest []avfi.EpisodeRecord
	for i, rec := range ran.records {
		if !dropped[i] {
			rest = append(rest, rec)
		}
	}
	restLog, err := encodeRecords(rest)
	if err != nil {
		return err
	}

	again, err := s.round(cfg, o.tmp, rigOpts{parallelism: 1, local: true, resume: &sliceSource{recs: rest}})
	if err != nil {
		return err
	}
	if again.rs.Engine.Episodes != drop || len(again.records) != drop {
		return fmt.Errorf("resumed campaign ran %d episodes and logged %d records, want the %d dropped",
			again.rs.Engine.Episodes, len(again.records), drop)
	}
	// The canonical order is total, so the rest plus the replayed records
	// merge back to the original stream exactly when the replayed records
	// equal the dropped ones byte for byte.
	var whole bytes.Buffer
	if _, err := avfi.MergeRecords(&whole, avfi.FormatBinary, bytes.NewReader(restLog), bytes.NewReader(again.merged)); err != nil {
		return err
	}
	if !bytes.Equal(whole.Bytes(), ran.merged) {
		return fmt.Errorf("replayed records differ from the %d dropped ones", drop)
	}
	return nil
}
