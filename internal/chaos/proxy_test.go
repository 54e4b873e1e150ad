package chaos

import (
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestProxyRelaysCleanly(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello through the proxy")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := readFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	if p.Accepted.Load() != 1 {
		t.Errorf("accepted = %d, want 1", p.Accepted.Load())
	}
}

func TestProxyCutAndBlackout(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := readFull(conn, one); err != nil {
		t.Fatal(err)
	}

	if n := p.CutConnections(); n != 1 {
		t.Fatalf("cut %d sessions, want 1", n)
	}
	// The severed session surfaces as EOF/reset on the client.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Error("read after cut succeeded")
	}

	// Blackout: dials may complete (the listener still accepts) but the
	// session dies immediately, before any byte crosses.
	p.SetBlackout(true)
	c2, err := net.Dial("tcp", p.Addr())
	if err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c2.Read(one); err == nil {
			t.Error("blackout session relayed bytes")
		}
		c2.Close()
	}
	p.SetBlackout(false)
	c3, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := readFull(c3, one); err != nil {
		t.Fatalf("post-blackout session broken: %v", err)
	}
}

func TestProxyScriptedCorruption(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Establish the session, then corrupt byte 5 of the upcoming bytes.
	if _, err := conn.Write([]byte("A")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := readFull(conn, one); err != nil {
		t.Fatal(err)
	}
	p.CorruptNextUplink(5)
	payload := []byte("0123456789")
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := readFull(conn, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
			if i != 5 {
				t.Errorf("byte %d corrupted, want only byte 5", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes corrupted, want exactly 1", diff)
	}
}

func TestScenarioTracesDeterministic(t *testing.T) {
	a := StandardScenarios(42, 8)
	b := StandardScenarios(42, 8)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("scenario counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("scenario %d name mismatch", i)
		}
		for _, tm := range []float64{0, 1, 2.5, 3.3, 4.9, 6.2, 7.9} {
			if a[i].Trace.BandwidthAt(tm) != b[i].Trace.BandwidthAt(tm) {
				t.Errorf("%s: trace not deterministic at t=%.1f", a[i].Name, tm)
			}
		}
		if len(a[i].FaultWindows) == 0 {
			t.Errorf("%s: no fault windows", a[i].Name)
		}
		for _, w := range a[i].FaultWindows {
			mid := (w[0] + w[1]) / 2
			if bw := a[i].Trace.BandwidthAt(mid); a[i].Name != "bandwidth-cliff" && bw != 0 {
				t.Errorf("%s: bandwidth %.0f inside fault window [%v,%v)", a[i].Name, bw, w[0], w[1])
			}
		}
	}
}

func TestOutageBurstWindowsOrdered(t *testing.T) {
	b := OutageBurst(nil, 9, 3, 1, 7, 0.5)
	if len(b.Windows) != 3 {
		t.Fatalf("got %d windows", len(b.Windows))
	}
	for i, w := range b.Windows {
		if w[1]-w[0] != 0.5 {
			t.Errorf("window %d duration %v", i, w[1]-w[0])
		}
		if i > 0 && w[0] < b.Windows[i-1][1] {
			t.Errorf("windows overlap: %v", b.Windows)
		}
		if bw := b.BandwidthAt((w[0] + w[1]) / 2); bw != 0 {
			t.Errorf("bandwidth %v inside window %d", bw, i)
		}
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
