package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsDurationBeforeDialing: a clip duration out of range, NaN
// included, is rejected by name before rendering and before the agent
// contacts the server.
func TestRunRejectsDurationBeforeDialing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, d := range []string{"-1", "0", "NaN", "3601", "1e9"} {
		err := run([]string{"-addr", ln.Addr().String(), "-duration", d})
		if err == nil || !strings.Contains(err.Error(), "-duration") {
			t.Errorf("-duration %s: err = %v, want an error naming -duration", d, err)
		}
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Error("the agent dialed the server despite a rejected -duration")
	}
}
