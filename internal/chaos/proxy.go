package chaos

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// dialTimeout bounds the proxy's upstream dial.
const dialTimeout = 2 * time.Second

// Proxy relays TCP connections to a target address. Tests place it between
// a live agent and a live edge server: the agent dials Proxy.Addr(), the
// proxy dials the real server, and every byte crosses it untouched until the
// test scripts a fault — CutConnections severs everything active,
// SetBlackout refuses new connections, CorruptNextUplink flips one byte of
// an upcoming uplink chunk.
type Proxy struct {
	target string
	ln     net.Listener

	blackout atomic.Bool

	mu     sync.Mutex
	nextID int64
	active map[int64]*proxySession
	closed bool
	// pendingCorrupt is handed to the next accepted session's uplink.
	pendingCorrupt []int

	wg sync.WaitGroup

	// Counters for assertions: sessions accepted, connections refused by a
	// blackout, bytes relayed per direction.
	Accepted  atomic.Int64
	Refused   atomic.Int64
	UpBytes   atomic.Int64
	DownBytes atomic.Int64
}

type proxySession struct {
	client, server net.Conn
	up             uplink
}

// uplink is one session's agent→server byte position and the one-shot
// corruptions queued against it.
type uplink struct {
	mu      sync.Mutex
	offset  int   // bytes relayed so far
	corrupt []int // absolute offsets still to flip
}

// corruptAt queues a one-shot corruption rel bytes past the current offset.
func (u *uplink) corruptAt(rel int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.corrupt = append(u.corrupt, u.offset+rel)
}

// apply flips every queued byte that falls inside chunk (XOR 0xFF: the
// byte always changes, so the wire CRC always catches it) and advances the
// offset past chunk.
func (u *uplink) apply(chunk []byte) {
	u.mu.Lock()
	defer u.mu.Unlock()
	start, end := u.offset, u.offset+len(chunk)
	keep := u.corrupt[:0]
	for _, at := range u.corrupt {
		switch {
		case at >= end:
			keep = append(keep, at)
		case at >= start:
			chunk[at-start] ^= 0xFF
		}
	}
	u.corrupt = keep
	u.offset = end
}

// NewProxy starts a relay on 127.0.0.1:0 toward target. Close releases it.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, active: make(map[int64]*proxySession)}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address; point the agent here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.blackout.Load() {
			p.Refused.Add(1)
			conn.Close()
			continue
		}
		server, err := net.DialTimeout("tcp", p.target, dialTimeout)
		if err != nil {
			conn.Close()
			continue
		}
		p.Accepted.Add(1)
		sess := &proxySession{client: conn, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			server.Close()
			return
		}
		id := p.nextID
		p.nextID++
		p.active[id] = sess
		// Deliver any queued scripted corruptions to this session's uplink.
		for _, at := range p.pendingCorrupt {
			sess.up.corruptAt(at)
		}
		p.pendingCorrupt = nil
		p.mu.Unlock()

		p.wg.Add(2)
		done := func() {
			// Either direction failing tears down the whole session.
			sess.client.Close()
			sess.server.Close()
			p.mu.Lock()
			delete(p.active, id)
			p.mu.Unlock()
			p.wg.Done()
		}
		go func() { defer done(); pipe(sess.client, sess.server, &sess.up, &p.UpBytes) }()
		go func() { defer done(); pipe(sess.server, sess.client, nil, &p.DownBytes) }()
	}
}

// pipe copies src→dst, through up's queued corruptions when up is non-nil.
func pipe(src, dst net.Conn, up *uplink, count *atomic.Int64) {
	buf := make([]byte, 16*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if up != nil {
				up.apply(buf[:n])
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			count.Add(int64(n))
		}
		if err != nil {
			return
		}
	}
}

// CutConnections severs every active session (a hard mid-stream disconnect)
// and returns how many were cut.
func (p *Proxy) CutConnections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for id, sess := range p.active {
		sess.client.Close()
		sess.server.Close()
		delete(p.active, id)
		n++
	}
	return n
}

// SetBlackout toggles a full outage: while on, new connections are accepted
// and immediately closed (the agent's dial succeeds but the session dies
// before the handshake), and every active session is severed.
func (p *Proxy) SetBlackout(on bool) {
	p.blackout.Store(on)
	if on {
		p.CutConnections()
	}
}

// CorruptNextUplink queues a one-shot single-byte corruption of the uplink,
// relOffset bytes past the current position of every active session (and of
// the next accepted session if none is active). Exercises the wire CRC and
// the server's NACK→keyframe recovery. Only tests call it, edge's among
// them, which is why it is exported rather than kept in a test file.
func (p *Proxy) CorruptNextUplink(relOffset int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.active) == 0 {
		p.pendingCorrupt = append(p.pendingCorrupt, relOffset)
		return
	}
	for _, sess := range p.active {
		sess.up.corruptAt(relOffset)
	}
}

// Close stops the listener and severs all sessions.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.CutConnections()
	p.wg.Wait()
	return err
}
