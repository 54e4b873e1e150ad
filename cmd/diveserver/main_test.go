package main

import (
	"net"
	"strings"
	"testing"
)

// TestRunRejectsDrillFlagsWithoutCluster: -kill-after and -seed steer only
// the cluster's kill drill, so a bare server rejects them by name before it
// listens. The test holds -addr itself, so a run that listened first would
// fail on the busy port instead.
func TestRunRejectsDrillFlagsWithoutCluster(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-kill-after", "1s"}, "-kill-after"},
		{[]string{"-seed", "3"}, "-seed"},
		{[]string{"-cluster", "0", "-kill-after", "1s"}, "-kill-after"},
	} {
		err := run(append([]string{"-addr", ln.Addr().String()}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
