package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"dive/internal/core"
	"dive/internal/netsim"
	"dive/internal/world"
)

// TestAgentConfigSeedsPriorFromRate: every -rate above 0, the ones at or
// below 0.5 Mbps included, seeds the bandwidth estimator with the rate the
// uplink is paced at; -rate 0 (unthrottled) keeps the default prior.
func TestAgentConfigSeedsPriorFromRate(t *testing.T) {
	clip := &world.Clip{W: 320, H: 192, FPS: 12, Focal: 300}
	def := core.DefaultAgentConfig(clip.W, clip.H, clip.FPS, clip.Focal).BandwidthPrior
	for _, c := range []struct{ rate, want float64 }{
		{0, def},
		{0.1, netsim.Mbps(0.1)},
		{0.3, netsim.Mbps(0.3)},
		{0.5, netsim.Mbps(0.5)},
		{0.6, netsim.Mbps(0.6)},
		{4, netsim.Mbps(4)},
	} {
		if got := agentConfig(clip, 1, c.rate, nil).BandwidthPrior; got != c.want {
			t.Errorf("-rate %g: BandwidthPrior = %g, want %g", c.rate, got, c.want)
		}
	}
}

// TestRunRejectsDurationBeforeDialing: a clip duration out of range, NaN
// included, is rejected by name before rendering and before the agent
// contacts the server.
func TestRunRejectsDurationBeforeDialing(t *testing.T) {
	var cases [][2]string
	for _, d := range []string{"-1", "0", "NaN", "3601", "1e9"} {
		cases = append(cases, [2]string{"-duration", d})
	}
	rejectsBeforeDialing(t, cases)
}

// TestRunRejectsReplacedValuesBeforeDialing: a value the client would
// silently replace — a window below 1, a zero or negative ack timeout or
// reconnect budget — or a rate that is negative or not finite is rejected
// by name before rendering and before the agent contacts the server.
func TestRunRejectsReplacedValuesBeforeDialing(t *testing.T) {
	rejectsBeforeDialing(t, [][2]string{
		{"-window", "0"},
		{"-window", "-2"},
		{"-ack-timeout", "0s"},
		{"-ack-timeout", "-1s"},
		{"-max-reconnects", "0"},
		{"-max-reconnects", "-1"},
		{"-rate", "-1"},
		{"-rate", "NaN"},
		{"-rate", "+Inf"},
	})
}

// rejectsBeforeDialing runs the agent against a listener once per (flag,
// value) case and wants each run to fail with an error naming the flag,
// with no connection made.
func rejectsBeforeDialing(t *testing.T, cases [][2]string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range cases {
		err := run([]string{"-addr", ln.Addr().String(), c[0], c[1]})
		if err == nil || !strings.Contains(err.Error(), c[0]) {
			t.Errorf("%s %s: err = %v, want an error naming %s", c[0], c[1], err, c[0])
		}
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Error("the agent dialed the server despite a rejected value")
	}
}
