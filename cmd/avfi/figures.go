package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/avfi/avfi"
)

// figures is `avfi figures`: it regenerates the evaluation figures of the
// AVFI paper (DSN 2018) as text series on stdout:
//
//	Figure 2 — mission success rate per input fault injector
//	Figure 3 — traffic violations per km per input fault injector
//	Figure 4 — violations per km vs output delay (frames at 15 FPS)
//
// Absolute numbers depend on this repository's simulator substrate, not
// the authors' CARLA testbed; the claims under reproduction are the
// figures' shapes.
func figures(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("figures", stderr)
	var (
		fig       = fs.Int("fig", 0, "figure to regenerate: 2, 3, 4 (0 = all)")
		frames    = fs.String("frames", strings.Trim(strings.ReplaceAll(fmt.Sprint(avfi.Fig4Frames()), " ", ","), "[]"), "Figure 4 output delays in frames, comma-separated")
		ttv       = fs.Bool("ttv", false, "also run the mid-episode TTV experiment (beyond the paper's figures)")
		missions  = fs.Int("missions", 6, "missions per campaign")
		reps      = fs.Int("reps", 2, "repetitions per mission and injector")
		seed      = fs.Uint64("seed", 20180625, "campaign seed")
		agentPath = fs.String("agent", "", "load a trained agent (default: train in-process)")
		csvDir    = fs.String("csv-dir", "", "also write per-figure CSVs into this directory")
	)
	if err := parseFlags(fs, args, 0); err != nil {
		return err
	}
	if *fig != 0 && *fig != 2 && *fig != 3 && *fig != 4 {
		return fmt.Errorf("-fig %d: want 2, 3, 4, or 0 for all", *fig)
	}
	fig23, fig4 := *fig != 4, *fig == 0 || *fig == 4
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "frames" && !fig4 {
			err = fmt.Errorf("-frames sets Figure 4's delays; -fig %d does not run it", *fig)
		}
	})
	if err != nil {
		return err
	}
	delays, err := parseInts("frames", *frames)
	if err != nil {
		return err
	}

	base, err := baseConfig(*agentPath, *missions, *reps, *seed)
	if err != nil {
		return err
	}

	if fig23 {
		cfg := base
		cfg.Injectors = avfi.InputFaultSuite()
		rs, err := runSuite(cfg, stderr)
		if err != nil {
			return err
		}
		if *fig != 3 {
			printFig2(stdout, rs)
		}
		if *fig != 2 {
			printVPK(stdout, "Figure 3 — Total violations / km per input fault injector", "injector", rs)
		}
		printComparisons(stdout, rs)
		if err := maybeCSV(*csvDir, "fig2_fig3", rs); err != nil {
			return err
		}
	}

	if fig4 {
		cfg := base
		cfg.Injectors = avfi.DelaySweep(delays)
		rs, err := runSuite(cfg, stderr)
		if err != nil {
			return err
		}
		printVPK(stdout, "Figure 4 — Total violations / km vs injected output delay (frames @ 15 FPS)", "delay", rs)
		if err := maybeCSV(*csvDir, "fig4", rs); err != nil {
			return err
		}
	}

	if *ttv {
		// Faults strike mid-episode (frame 150 = 10 s in), so TTV measures
		// the gap between injection and the first resulting violation.
		const injectAt = 150
		cfg := base
		cfg.Injectors = []avfi.InjectorSource{
			avfi.Injector(avfi.NoInject),
			avfi.Windowed(avfi.Injector("gaussian"), injectAt),
			avfi.Windowed(avfi.Injector("solidocc"), injectAt),
			avfi.Windowed(avfi.Injector("ctrlstuck"), injectAt),
			avfi.Windowed(avfi.Injector("outputdelay"), injectAt),
		}
		rs, err := runSuite(cfg, stderr)
		if err != nil {
			return err
		}
		printTTV(stdout, rs, injectAt)
		if err := maybeCSV(*csvDir, "ttv", rs); err != nil {
			return err
		}
	}
	return nil
}

// printComparisons prints bootstrap contrasts of every injector against
// the fault-free baseline.
func printComparisons(w io.Writer, rs *avfi.ResultSet) {
	groups := map[string][]avfi.EpisodeRecord{}
	for _, rec := range rs.Records {
		groups[rec.Injector] = append(groups[rec.Injector], rec)
	}
	base, ok := groups[avfi.NoInject]
	if !ok {
		return
	}
	fmt.Fprintln(w, "\nBaseline contrasts (bootstrap 95% CIs; * = VPK difference significant)")
	for _, rep := range rs.Reports {
		if rep.Injector == avfi.NoInject {
			continue
		}
		c, err := avfi.Compare(base, groups[rep.Injector], 2000, avfi.NewRand(1))
		if err != nil {
			continue
		}
		fmt.Fprintln(w, "  "+c.String())
	}
}

// printTTV prints the time-to-violation series for mid-episode injection.
func printTTV(w io.Writer, rs *avfi.ResultSet, injectAt int) {
	fmt.Fprintf(w, "\nTTV — time from injection (frame %d = %.1fs) to first violation\n",
		injectAt, float64(injectAt)/avfi.FPS)
	fmt.Fprintf(w, "%-16s %10s %10s %12s\n", "injector", "mean TTV(s)", "median(s)", "episodes w/ viol")
	for _, r := range rs.Reports {
		fmt.Fprintf(w, "%-16s %10.2f %10.2f %8d/%d\n",
			r.Injector, r.MeanTTV, r.TTV.Median, r.TTVEpisodes, r.Episodes)
	}
}

// baseConfig is the campaign figures and ablate vary: the default world
// and the agent at agentPath over a missions x reps grid.
func baseConfig(agentPath string, missions, reps int, seed uint64) (avfi.CampaignConfig, error) {
	agentSrc, err := agentSource(agentPath)
	if err != nil {
		return avfi.CampaignConfig{}, err
	}
	return avfi.CampaignConfig{
		World:       avfi.DefaultWorldConfig(),
		Agent:       agentSrc,
		Missions:    missions,
		Repetitions: reps,
		Seed:        seed,
	}, nil
}

// runSuite runs one campaign of figures or ablate, noting its shape on
// stderr.
func runSuite(cfg avfi.CampaignConfig, stderr io.Writer) (*avfi.ResultSet, error) {
	runner, err := avfi.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "campaign: %d injectors x %d missions x %d reps\n",
		len(cfg.Injectors), cfg.Missions, cfg.Repetitions)
	return runner.Run()
}

// printFig2 prints the paper's Figure 2 series: success rate per injector.
func printFig2(w io.Writer, rs *avfi.ResultSet) {
	fmt.Fprintln(w, "\nFigure 2 — Mission success rate (%) per input fault injector")
	fmt.Fprintf(w, "%-12s %s\n", "injector", "success_rate_pct")
	for _, r := range rs.Reports {
		fmt.Fprintf(w, "%-12s %.1f\n", r.Injector, r.MSR)
	}
}

// printVPK prints a violations/km figure: one five-number summary row per
// report, as the paper's box plots.
func printVPK(w io.Writer, title, column string, rs *avfi.ResultSet) {
	fmt.Fprintln(w, "\n"+title)
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s %8s\n", column, "min", "q1", "median", "q3", "max", "mean")
	for _, r := range rs.Reports {
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Injector, r.VPK.Min, r.VPK.Q1, r.VPK.Median, r.VPK.Q3, r.VPK.Max, r.MeanVPK)
	}
}

// maybeCSV writes the figure's records and reports CSVs into dir, if set.
func maybeCSV(dir, name string, rs *avfi.ResultSet) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, name+"_records.csv"), func(w io.Writer) error {
		return avfi.WriteRecordsCSV(w, rs.Records)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, name+"_reports.csv"), func(w io.Writer) error {
		return avfi.WriteReportsCSV(w, rs.Reports)
	})
}
