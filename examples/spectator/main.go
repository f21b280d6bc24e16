// Spectator drives one mission with the trained agent and saves what both
// the agent and a bird's-eye observer see: the hood camera frames (with a
// fault injector optionally applied) and top-down spectator views, as PPM
// images any viewer opens.
//
//	go run ./examples/spectator -out /tmp/avfi-frames
//	go run ./examples/spectator -out /tmp/avfi-frames -fault solidocc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/avfi/avfi"
)

func main() {
	outDir := flag.String("out", "avfi-frames", "output directory for PPM frames")
	faultName := flag.String("fault", "", "optional camera fault to visualize (e.g. gaussian, solidocc)")
	every := flag.Int("every", 15, "save every Nth frame (15 = once per simulated second)")
	flag.Parse()

	if err := run(*outDir, *faultName, *every); err != nil {
		log.Fatal(err)
	}
}

func run(outDir, faultName string, every int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	w, err := avfi.NewWorld(avfi.DefaultWorldConfig())
	if err != nil {
		return err
	}
	fmt.Println("training the driving agent...")
	agent, err := avfi.TrainAgent(w, avfi.DefaultPretrainSpec())
	if err != nil {
		return err
	}

	// One mission across town.
	from, to, err := w.Town().RandomMission(avfi.NewRand(7), 200)
	if err != nil {
		return err
	}
	episode, err := w.NewEpisode(avfi.EpisodeConfig{
		From: from, To: to, Seed: 7, NumNPCs: 4, NumPedestrians: 4,
	})
	if err != nil {
		return err
	}

	// Optional camera fault between the sensor and the agent.
	var inject avfi.InputInjector
	if faultName != "" {
		src := avfi.Injector(faultName)
		inst, err := avfi.Instantiate(src)
		if err != nil {
			return err
		}
		in, ok := inst.(avfi.InputInjector)
		if !ok {
			return fmt.Errorf("%s is not an input fault", faultName)
		}
		inject = in
	}
	frand := avfi.NewRand(99)

	saved := 0
	for !episode.Done() {
		obs := episode.Observe()
		img := obs.Image
		if inject != nil {
			img = img.Clone()
			inject.InjectImage(img, obs.Frame, frand)
		}
		if obs.Frame%every == 0 {
			camPath := filepath.Join(outDir, fmt.Sprintf("cam_%04d.ppm", obs.Frame))
			if err := savePPM(camPath, img); err != nil {
				return err
			}
			top := episode.TopDownView(avfi.DefaultTopDownConfig())
			topPath := filepath.Join(outDir, fmt.Sprintf("top_%04d.ppm", obs.Frame))
			if err := savePPM(topPath, top); err != nil {
				return err
			}
			saved += 2
		}
		ctl, err := agent.Act(img, obs.Speed, obs.Command)
		if err != nil {
			return err
		}
		episode.Step(ctl)
	}

	res := episode.Result()
	fmt.Printf("mission %d->%d: %v after %.1f s, %.0f m, %d violations\n",
		from, to, res.Status, res.DurationS, res.DistanceM, len(res.Violations))
	fmt.Printf("wrote %d PPM frames to %s\n", saved, outDir)
	return nil
}

func savePPM(path string, img *avfi.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := avfi.WritePPM(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
