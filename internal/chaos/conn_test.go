package chaos

import (
	"errors"
	"net"
	"time"
)

// errInjectedDisconnect marks a connection severed by the fault plan (as
// opposed to a real transport error).
var errInjectedDisconnect = errors.New("chaos: injected disconnect")

// conn wraps a net.Conn with fault injection: Write passes through the
// uplink plan, Read through the downlink plan. A severed plan closes the
// underlying connection and surfaces errInjectedDisconnect. It drives the
// fault engine Proxy runs on without a relay in between.
type conn struct {
	net.Conn
	up, down *faultStream
}

// wrapConn applies fault plans to a live connection. Either plan may be the
// zero PlanConfig to leave that direction clean.
func wrapConn(c net.Conn, uplink, downlink PlanConfig) *conn {
	return &conn{Conn: c, up: newFaultStream(uplink), down: newFaultStream(downlink)}
}

// Write implements net.Conn with uplink fault injection.
func (c *conn) Write(b []byte) (int, error) {
	if !c.up.active() {
		return c.Conn.Write(b)
	}
	// Copy so corruption never mutates the caller's buffer.
	buf := append([]byte(nil), b...)
	res := c.up.apply(buf)
	if res.sleep > 0 {
		time.Sleep(res.sleep)
	}
	n := 0
	if len(res.chunk) > 0 {
		var err error
		n, err = c.Conn.Write(res.chunk)
		if err != nil {
			return n, err
		}
	}
	if res.severed {
		c.Conn.Close()
		return n, errInjectedDisconnect
	}
	return len(b), nil
}

// Read implements net.Conn with downlink fault injection.
func (c *conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.down.active() {
		res := c.down.apply(b[:n])
		if res.sleep > 0 {
			time.Sleep(res.sleep)
		}
		if res.severed {
			c.Conn.Close()
			if len(res.chunk) == 0 {
				return 0, errInjectedDisconnect
			}
			return len(res.chunk), nil
		}
	}
	return n, err
}

// corruptUplinkAt queues a one-shot corruption of the uplink byte at the
// given offset from the current write position.
func (c *conn) corruptUplinkAt(relOffset int) { c.up.corruptAt(relOffset) }

// active reports whether any fault could fire on the next chunk.
func (fs *faultStream) active() bool {
	if fs.cfg.enabled() {
		return true
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.corruptOnce) > 0
}

// enabled reports whether the plan injects anything at all.
func (p PlanConfig) enabled() bool {
	return p.CorruptEvery > 0 || p.StallEvery > 0 || p.DisconnectAfter > 0 || p.ThrottleBps > 0
}
