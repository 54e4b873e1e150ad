package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dive/internal/obs"
)

func TestDefaultStreamLadder(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{0, []int{1, 4, 16, 64}},
		{64, []int{1, 4, 16, 64}},
		{4, []int{1, 4}},
		{5, []int{1, 4, 5}},
		{1, []int{1}},
		{3, []int{1, 3}},
		{2, []int{1, 2}},
	}
	for _, c := range cases {
		got := DefaultStreamLadder(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ladder(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

func TestMultiStreamPacking(t *testing.T) {
	var log bytes.Buffer
	res, err := MultiStreamPacking(ScaleSmoke, testSeed, 0.3, []int{1, 2}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rungs) != 2 {
		t.Fatalf("rungs = %d, want 2", len(res.Rungs))
	}
	for _, g := range res.Rungs {
		if g.Frames <= 0 || g.FPS <= 0 || g.FPSPerCore <= 0 {
			t.Errorf("rung %d: empty measurement %+v", g.Streams, g)
		}
		if g.FPSPerStream <= 0 {
			t.Errorf("rung %d: fps/stream = %f", g.Streams, g.FPSPerStream)
		}
	}
	if res.Rungs[0].Streams != 1 || res.Rungs[1].Streams != 2 {
		t.Errorf("rung order: %d, %d", res.Rungs[0].Streams, res.Rungs[1].Streams)
	}
	// The runtime log must parse as the JSONL series divedoctor consumes
	// and cover only the final rung's steady window.
	samples, err := obs.ReadJSONL[obs.RuntimeStats](&log)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("runtime log is empty")
	}
	for i, s := range samples {
		if s.HeapLiveBytes == 0 || s.GOMAXPROCS == 0 {
			t.Errorf("sample %d looks empty: %+v", i, s)
		}
	}

	table := RenderMultiStream(res)
	var sb strings.Builder
	table.Fprint(&sb)
	if !strings.Contains(sb.String(), "Multi-stream packing") {
		t.Error("render missing title")
	}
}
