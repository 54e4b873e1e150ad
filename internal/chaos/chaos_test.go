package chaos

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// pipePair returns two connected TCP conns over loopback (net.Pipe has no
// deadlines-by-default semantics we want to mimic production with).
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return client, r.c
}

func TestFaultStreamDeterministicCorruption(t *testing.T) {
	cfg := PlanConfig{Seed: 7, CorruptEvery: 64}
	mutate := func() []int {
		fs := newFaultStream(cfg)
		data := make([]byte, 1024)
		out := fs.apply(append([]byte(nil), data...))
		var idx []int
		for i, b := range out.chunk {
			if b != 0 {
				idx = append(idx, i)
			}
		}
		return idx
	}
	a, b := mutate(), mutate()
	if len(a) == 0 {
		t.Fatal("no corruption injected over 1 KiB with CorruptEvery=64")
	}
	if len(a) != len(b) {
		t.Fatalf("corruption count differs across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption offsets differ: %v vs %v", a, b)
		}
	}
}

func TestFaultStreamDisconnectTruncates(t *testing.T) {
	fs := newFaultStream(PlanConfig{Seed: 1, DisconnectAfter: 100})
	out := fs.apply(make([]byte, 64))
	if out.severed || len(out.chunk) != 64 {
		t.Fatalf("first chunk: severed=%v len=%d", out.severed, len(out.chunk))
	}
	out = fs.apply(make([]byte, 64))
	if !out.severed || len(out.chunk) != 36 {
		t.Fatalf("second chunk: severed=%v len=%d, want severed with 36-byte prefix", out.severed, len(out.chunk))
	}
	// Once severed, everything is swallowed.
	out = fs.apply(make([]byte, 10))
	if !out.severed || len(out.chunk) != 0 {
		t.Fatalf("post-sever chunk passed through: %v %d", out.severed, len(out.chunk))
	}
}

func TestConnCorruptionAndDisconnect(t *testing.T) {
	client, server := pipePair(t)
	defer server.Close()
	wrapped := wrapConn(client, PlanConfig{Seed: 3, DisconnectAfter: 200}, PlanConfig{})
	wrapped.corruptUplinkAt(10)

	payload := make([]byte, 150)
	for i := range payload {
		payload[i] = 0xAA
	}
	if _, err := wrapped.Write(payload); err != nil {
		t.Fatalf("first write: %v", err)
	}
	got := make([]byte, 150)
	if _, err := readFull(server, got); err != nil {
		t.Fatal(err)
	}
	if got[10] == 0xAA {
		t.Error("scripted corruption at offset 10 did not fire")
	}
	diff := 0
	for i := range got {
		if got[i] != 0xAA {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("expected exactly 1 corrupted byte, got %d", diff)
	}

	// Next write crosses DisconnectAfter=200: 50-byte prefix, then sever.
	_, err := wrapped.Write(payload)
	if err != errInjectedDisconnect {
		t.Fatalf("expected injected disconnect, got %v", err)
	}
	prefix := make([]byte, 50)
	if _, err := readFull(server, prefix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefix, payload[:50]) {
		t.Error("prefix before disconnect was not delivered intact")
	}
}

func TestConnThrottlePaces(t *testing.T) {
	client, server := pipePair(t)
	defer server.Close()
	// 80 kbit/s: 1000 bytes = 100 ms serialized.
	wrapped := wrapConn(client, PlanConfig{Seed: 1, ThrottleBps: 80_000}, PlanConfig{})
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := wrapped.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("throttled 1000-byte write took %v, want >= ~100ms", el)
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
