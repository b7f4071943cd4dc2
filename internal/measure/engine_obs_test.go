package measure

import (
	"fmt"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// withObs enables a fresh registry for the test's duration, restoring
// the previous one after.
func withObs(t *testing.T) *obs.Registry {
	t.Helper()
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })
	return r
}

// TestCampaignCountsDaysAsEngineTasks: every captured day is one engine
// task of the pool the campaign admits its days on, counted by that
// pool's width like a FanOut task.
func TestCampaignCountsDaysAsEngineTasks(t *testing.T) {
	const days = 6
	n, err := sim.New(sim.Config{Seed: 13, Days: days, TargetDailyPeers: 200})
	if err != nil {
		t.Fatal(err)
	}
	for workers, mode := range map[int]string{1: "serial", 2: "parallel"} {
		r := withObs(t)
		runStreamCampaign(t, n, CampaignConfig{Observers: DefaultObserverFleet(3), EndDay: days, Workers: workers})
		text := r.RenderText()
		if want := fmt.Sprintf(`i2p_engine_tasks_total{mode=%q} %d`, mode, days); !strings.Contains(text, want) {
			t.Errorf("Workers=%d: want %s in\n%s", workers, want, text)
		}
	}
}
