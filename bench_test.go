// Benchmark harness regenerating every table/figure of the AVFI paper's
// evaluation (DSN 2018). The paper has no numbered tables; its evaluation
// is Figures 2-4:
//
//	BenchmarkFigure2InputFaultMSR  — Fig 2: mission success rate per input fault
//	BenchmarkFigure3InputFaultVPK  — Fig 3: violations/km per input fault
//	BenchmarkFigure4OutputDelayVPK — Fig 4: violations/km vs output delay
//
// Each figure bench runs its campaign (with the committed pretrained
// agent, once per process, cached) and reports the figure's series as
// benchmark metrics, so
//
//	go test -bench 'Figure' -benchmem
//
// prints the reproduced series next to the timing. Absolute values depend
// on this repository's simulator substrate; EXPERIMENTS.md records the
// paper-vs-measured comparison. Micro-benchmarks for the substrate hot
// paths follow the figure benches.
package avfi_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/avfi/avfi"
)

// Campaign scale for the figure benches; must match EXPERIMENTS.md.
const (
	benchMissions = 6
	benchReps     = 2
	benchSeed     = 12345
)

var (
	paperOnce  sync.Once
	paperFig23 *avfi.ResultSet
	paperFig4  *avfi.ResultSet
	paperErr   error
)

// The committed pretrained agent (bench/testdata, written by
// bench/regen-agent.sh from DefaultPretrainSpec) and the digests that tie
// it to that recipe: the file's SHA-256, and a digest of the recipe itself.
// A recipe change fails paperCampaigns until the agent is regenerated and
// pretrainSpecDigest updated, so the figure tests keep driving the agent
// the recipe trains without training it in every test process.
const (
	agentFile          = "bench/testdata/agent-default.avfi"
	agentSHA256File    = "bench/testdata/agent-default.sha256"
	pretrainSpecDigest = "287a0038813572033f4d2d5f53ef20c506f4ffb62ef966c0a5f609e5fe98ac03"
)

// loadPaperAgent reads the committed agent after checking its checksum
// and the recipe digest.
func loadPaperAgent() (*avfi.Agent, error) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", avfi.DefaultPretrainSpec())))
	if got := hex.EncodeToString(sum[:]); got != pretrainSpecDigest {
		return nil, fmt.Errorf("DefaultPretrainSpec digest %s, want %s: regenerate %s (bench/regen-agent.sh) and update pretrainSpecDigest", got, pretrainSpecDigest, agentFile)
	}
	data, err := os.ReadFile(agentFile)
	if err != nil {
		return nil, err
	}
	want, err := os.ReadFile(agentSHA256File)
	if err != nil {
		return nil, err
	}
	sum = sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		return nil, fmt.Errorf("%s: sha256 %s, want %s", agentFile, got, strings.TrimSpace(string(want)))
	}
	return avfi.LoadAgent(bytes.NewReader(data))
}

// paperCampaigns loads the experiment agent once per process and runs the
// Figure 2/3 and Figure 4 campaigns; tests and benchmarks share the cached
// results so one `go test -bench .` invocation pays for them once.
func paperCampaigns(tb testing.TB) (*avfi.ResultSet, *avfi.ResultSet) {
	tb.Helper()
	paperOnce.Do(func() {
		a, err := loadPaperAgent()
		if err != nil {
			paperErr = err
			return
		}
		base := avfi.CampaignConfig{
			World:       avfi.DefaultWorldConfig(),
			Agent:       avfi.AgentSource{Agent: a},
			Missions:    benchMissions,
			Repetitions: benchReps,
			Seed:        benchSeed,
		}
		cfg := base
		cfg.Injectors = avfi.InputFaultSuite()
		runner, err := avfi.NewCampaign(cfg)
		if err != nil {
			paperErr = err
			return
		}
		if paperFig23, err = runner.Run(); err != nil {
			paperErr = err
			return
		}
		cfg = base
		cfg.Injectors = avfi.DelaySweep(avfi.Fig4Frames())
		if runner, err = avfi.NewCampaign(cfg); err != nil {
			paperErr = err
			return
		}
		paperFig4, paperErr = runner.Run()
	})
	if paperErr != nil {
		tb.Fatal(paperErr)
	}
	return paperFig23, paperFig4
}

// benchCampaigns is the benchmark-facing alias.
func benchCampaigns(b *testing.B) (*avfi.ResultSet, *avfi.ResultSet) {
	b.Helper()
	return paperCampaigns(b)
}

// BenchmarkFigure2InputFaultMSR regenerates Figure 2: mission success rate
// (%) for {noinject, gaussian, saltpepper, solidocc, transpocc, waterdrop}.
func BenchmarkFigure2InputFaultMSR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig23, _ := benchCampaigns(b)
		b.StopTimer()
		for _, rep := range fig23.Reports {
			b.ReportMetric(rep.MSR, fmt.Sprintf("MSR_%%_%s", rep.Injector))
		}
		b.StartTimer()
	}
}

// BenchmarkFigure3InputFaultVPK regenerates Figure 3: total violations per
// km driven for the same injector suite (median of the per-episode
// distribution, as the paper's box plot).
func BenchmarkFigure3InputFaultVPK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig23, _ := benchCampaigns(b)
		b.StopTimer()
		for _, rep := range fig23.Reports {
			b.ReportMetric(rep.VPK.Median, fmt.Sprintf("VPKmed_%s", rep.Injector))
			b.ReportMetric(rep.MeanVPK, fmt.Sprintf("VPKmean_%s", rep.Injector))
		}
		b.StartTimer()
	}
}

// BenchmarkFigure4OutputDelayVPK regenerates Figure 4: total violations per
// km vs the injected output delay between the agent and actuation, for
// delays {0, 5, 10, 20, 30} frames at 15 FPS.
func BenchmarkFigure4OutputDelayVPK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fig4 := benchCampaigns(b)
		b.StopTimer()
		for _, rep := range fig4.Reports {
			b.ReportMetric(rep.VPK.Median, fmt.Sprintf("VPKmed_%s", rep.Injector))
			b.ReportMetric(rep.MSR, fmt.Sprintf("MSR_%%_%s", rep.Injector))
		}
		b.StartTimer()
	}
}
