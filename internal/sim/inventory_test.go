package sim

import (
	"flag"
	"os"
	"strings"
	"testing"

	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/telemetry_inventory.txt")

// TestTelemetryInventory pins the telemetry schema of a traced DiVE run —
// every (kind, family, label key) the agent, the link and the simulated edge
// register — against testdata/telemetry_inventory.txt, so a new family, or a
// second family for a fact one already records, shows up as a diff in
// review. Regenerate with go test ./internal/sim -run TelemetryInventory
// -update-golden.
func TestTelemetryInventory(t *testing.T) {
	clip := testClip(t, world.NuScenesLike(), 2, 21)
	rec := obs.NewRecorder(clip.NumFrames())
	scheme := &DiVE{ConfigFn: func(c *core.AgentConfig) { c.Obs = rec }}
	link := netsim.NewLink(netsim.ConstantTrace(netsim.Mbps(2)), 0.012)
	link.Obs = rec
	if _, err := scheme.Run(clip, link, NewEnv(7)); err != nil {
		t.Fatal(err)
	}

	const path = "testdata/telemetry_inventory.txt"
	got := strings.Join(rec.Registry().Inventory(), "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("telemetry inventory differs from %s (regenerate with -update-golden if intended):\ngot:\n%swant:\n%s", path, got, want)
	}
}
