package experiments

import (
	"strings"
	"testing"
)

// TestRegistryOrder pins the ids and their print order — the order of
// divebench's output and of EXPERIMENTS.md.
func TestRegistryOrder(t *testing.T) {
	const want = "t1 f6 f7 f9 f10 f11 f12 f13 f14 f16 abl abl2 night f17"
	var ids []string
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" || seen[e.ID] || e.Run == nil {
			t.Errorf("bad registry entry %q (empty, duplicate or no Run)", e.ID)
		}
		seen[e.ID] = true
		ids = append(ids, e.ID)
	}
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("registry order = %s, want %s", got, want)
	}
}

func TestParseScaleInvertsString(t *testing.T) {
	for _, s := range []Scale{ScaleSmoke, ScaleDefault, ScaleFull} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("unknown"); err == nil || !strings.Contains(err.Error(), "smoke, default, full") {
		t.Errorf("ParseScale(unknown) error = %v, want one naming the valid scales", err)
	}
}
