package edge

import (
	"os"
	"strings"
	"testing"
	"time"

	"dive/internal/codec"
	"dive/internal/obs"
	"dive/internal/world"
)

// TestTelemetryInventory pins the telemetry schema of one served session —
// a decoded frame, then a NACKed one — against
// testdata/telemetry_inventory.txt: every (kind, family, label key) the
// server registers, so a new family, or a second family for a fact a session
// series already records, shows up as a diff in review. Regenerate with
// go test ./internal/edge -run TelemetryInventory -update-golden.
func TestTelemetryInventory(t *testing.T) {
	rec := obs.NewRecorder(64)
	srv := NewServer()
	srv.Obs = rec
	addr, stop := startServer(t, srv)
	defer stop()

	p := world.NuScenesLike()
	p.ClipDuration = 1
	clip := world.GenerateClip(p, 7)
	enc, err := codec.NewEncoder(codec.DefaultConfig(clip.W, clip.H))
	if err != nil {
		t.Fatal(err)
	}
	ef, err := enc.Encode(clip.Frames[0], codec.EncodeOptions{BaseQP: 14})
	if err != nil {
		t.Fatal(err)
	}
	conn, mr := testSession(t, addr, Hello{Profile: "nuScenes", Seed: 7, Duration: 1})
	defer conn.Close()
	for i, bitstream := range [][]byte{ef.Data, {0xde, 0xad}} {
		if err := WriteFrame(conn, &FrameMsg{Index: i, Bitstream: bitstream, SentNanos: time.Now().UnixNano()}); err != nil {
			t.Fatal(err)
		}
		if res := readResult(t, conn, mr); res.NeedKeyframe != (i == 1) {
			t.Fatalf("frame %d: reply %+v, want a NACK on frame 1 only", i, res)
		}
	}

	const path = "testdata/telemetry_inventory.txt"
	got := strings.Join(rec.Registry().Inventory(), "\n") + "\n"
	if *updateGolden {
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
