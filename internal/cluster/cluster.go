// Package cluster runs N edge.Server members behind a health-routed
// balancer. It owns the three control-plane concerns one server never has:
//
//   - membership: every member is heartbeat-probed (a full
//     accept→handshake→ack round trip, so a partitioned or half-dead member
//     fails the probe even when its TCP port still accepts); consecutive
//     failures walk a member healthy→suspect→down with hysteresis on the way
//     back, so one dropped probe never flaps routing.
//   - routing: sessions go to the healthiest, least-loaded member via an
//     EWMA-smoothed session-count score (rank).
//   - migration: Drain redirects a member's live sessions to the best
//     surviving member over the Redirect wire message (planned migration);
//     Kill models the member dying mid-clip, after which clients fail over
//     through their candidate list (forced migration).
//
// The cluster is in-process (members listen on 127.0.0.1:0), matching the
// repo's simulation-first approach: the seeded kill drill and CI kill real
// listeners and real sessions deterministically, without containers.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"dive/internal/edge"
)

// State is a member's membership verdict.
type State int

const (
	// Healthy members take new sessions and migration targets.
	Healthy State = iota
	// Suspect members failed their last probe but not enough to be written
	// off; they keep their sessions and are routed to only when no healthy
	// member exists.
	Suspect
	// Down members failed failThreshold consecutive probes (or were
	// killed); they are never routed to until they re-earn Healthy.
	Down
	// Draining members are being emptied on purpose; never routed to.
	Draining
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Draining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalText encodes a state as its String, "healthy" etc.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ProbeFunc checks one member's liveness within timeout.
type ProbeFunc func(addr string, timeout time.Duration) error

// HelloProbe is the default probe: the client handshake with the reserved
// ProbeProfile. A member whose listener accepts but whose handler is wedged
// (or whose network path is blacked out) fails it.
func HelloProbe(addr string, timeout time.Duration) error {
	conn, _, _, err := edge.Handshake(addr, edge.Hello{Profile: edge.ProbeProfile}, timeout)
	if err == nil {
		conn.Close()
	}
	return err
}

// ProbeConfig shapes the health prober.
type ProbeConfig struct {
	// Interval between probes of one member (default 50ms).
	Interval time.Duration
	// Func replaces the probe implementation (tests); default HelloProbe.
	Func ProbeFunc
}

func (p ProbeConfig) withDefaults() ProbeConfig {
	if p.Interval <= 0 {
		p.Interval = 50 * time.Millisecond
	}
	if p.Func == nil {
		p.Func = HelloProbe
	}
	return p
}

const (
	// loadAlpha smooths the per-member session-load score the picker ranks
	// by (1 would be the raw instantaneous count).
	loadAlpha = 0.4
	// probeTimeout bounds one probe round trip.
	probeTimeout = 500 * time.Millisecond
	// failThreshold is the consecutive-failure count that marks a member
	// down; the first failure already marks it suspect.
	failThreshold = 3
	// recoverThreshold is the consecutive-success count a suspect or down
	// member needs to re-earn healthy — the hysteresis that keeps a
	// flapping member from oscillating in and out of rotation.
	recoverThreshold = 2
)

// Config configures a cluster.
type Config struct {
	// Members is the cluster size (default 3).
	Members int
	Probe   ProbeConfig
	// Configure, when set, is called with each member's server before it
	// listens — the hook for wiring telemetry recorders and timeouts.
	Configure func(i int, srv *edge.Server)
	// Logf receives membership and migration events; nil silences.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Members <= 0 {
		c.Members = 3
	}
	c.Probe = c.Probe.withDefaults()
	return c
}

// MemberStatus is one member's point-in-time view, in the JSON shape
// diveserver's /debug/cluster serves.
type MemberStatus struct {
	Index    int    `json:"-"`
	Name     string `json:"name"` // "edge-<index>"
	Addr     string `json:"addr"` // the address clients dial
	State    State  `json:"state"`
	Sessions int    `json:"sessions"`
	// Load is the EWMA-smoothed session count the picker ranks by.
	Load float64 `json:"load"`
	// LastHeartbeatAgeSec is the age of the last successful probe (-1 before
	// the first success).
	LastHeartbeatAgeSec float64 `json:"last_heartbeat_age_sec"`
}

// member is one edge server plus its membership bookkeeping.
type member struct {
	index int
	name  string
	addr  string
	srv   *edge.Server

	mu         sync.Mutex
	state      State
	consecFail int
	consecOK   int
	load       float64
	lastBeat   time.Time
	killed     bool
}

// Cluster is a running set of members plus the balancer state.
type Cluster struct {
	cfg     Config
	members []*member

	stopc     chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New starts cfg.Members edge servers on loopback and begins probing them.
// Close releases everything.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, stopc: make(chan struct{})}
	for i := 0; i < cfg.Members; i++ {
		srv := edge.NewServer()
		if cfg.Configure != nil {
			cfg.Configure(i, srv)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: member %d listen: %w", i, err)
		}
		m := &member{
			index: i, name: fmt.Sprintf("edge-%d", i),
			addr: addr.String(), srv: srv, state: Healthy,
		}
		c.members = append(c.members, m)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			srv.Serve()
		}()
	}
	for _, m := range c.members {
		c.wg.Add(1)
		go c.probeLoop(m)
	}
	return c, nil
}

func (c *Cluster) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// probeLoop drives one member's membership state machine.
func (c *Cluster) probeLoop(m *member) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Probe.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
		}
		err := c.cfg.Probe.Func(m.addr, probeTimeout)
		c.observeProbe(m, err)
	}
}

// observeProbe folds one probe result into the member's state machine.
// Split out so tests can drive the machine without a ticker.
func (c *Cluster) observeProbe(m *member, err error) {
	sessions := m.srv.SessionCount()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.load = loadAlpha*float64(sessions) + (1-loadAlpha)*m.load
	if err == nil {
		m.lastBeat = time.Now()
		m.consecFail = 0
		m.consecOK++
		// Draining is an operator verdict, not a health one: a draining
		// member stays draining however well it probes.
		if (m.state == Suspect || m.state == Down) && m.consecOK >= recoverThreshold {
			c.logf("member %s %s -> healthy (%d consecutive probe successes)", m.name, m.state, m.consecOK)
			m.state = Healthy
		}
		return
	}
	m.consecOK = 0
	m.consecFail++
	switch {
	case m.state == Healthy:
		c.logf("member %s healthy -> suspect: %v", m.name, err)
		m.state = Suspect
	case m.state == Suspect && m.consecFail >= failThreshold:
		c.logf("member %s suspect -> down after %d consecutive probe failures", m.name, m.consecFail)
		m.state = Down
	}
}

// status snapshots one member.
func (m *member) status() MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	hbAge := -1.0
	if !m.lastBeat.IsZero() {
		hbAge = time.Since(m.lastBeat).Seconds()
	}
	return MemberStatus{
		Index: m.index, Name: m.name, Addr: m.addr,
		State: m.state, Sessions: m.srv.SessionCount(),
		Load: m.load, LastHeartbeatAgeSec: hbAge,
	}
}

// Status returns every member's snapshot, index order.
func (c *Cluster) Status() []MemberStatus {
	out := make([]MemberStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m.status())
	}
	return out
}

// Members returns the cluster size.
func (c *Cluster) Members() int { return len(c.members) }

// Addr returns member i's dial address.
func (c *Cluster) Addr(i int) string { return c.members[i].addr }

// Server returns member i's server (test and telemetry wiring).
func (c *Cluster) Server(i int) *edge.Server { return c.members[i].srv }

// stateRank orders states for routing: healthy first, suspect as a last
// resort, down and draining never preferred.
func stateRank(s State) int {
	switch s {
	case Healthy:
		return 0
	case Suspect:
		return 1
	case Draining:
		return 2
	default:
		return 3
	}
}

// rank orders member snapshots by desirability for a new session.
func rank(a, b MemberStatus) bool {
	if ra, rb := stateRank(a.State), stateRank(b.State); ra != rb {
		return ra < rb
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.Index < b.Index
}

// pick returns the member a session should move to: the lowest-loaded
// healthy member other than exclude (-1 excludes none), or the best suspect
// when no member is healthy. Errors when every member is down or draining.
func (c *Cluster) pick(exclude int) (MemberStatus, error) {
	var best MemberStatus
	found := false
	for _, m := range c.members {
		if m.index == exclude {
			continue
		}
		st := m.status()
		if st.State == Down || st.State == Draining {
			continue
		}
		if !found || rank(st, best) {
			best, found = st, true
		}
	}
	if !found {
		return MemberStatus{}, fmt.Errorf("cluster: no routable member (all down or draining)")
	}
	return best, nil
}

// Drain starts a planned migration off member i: it is marked Draining
// (leaves the routing set) and its live sessions are redirected to the best
// surviving member. Returns the target address and how many sessions were
// redirected. No command drains a member yet; Drain stays exported as the
// operator's planned-migration call (DESIGN.md §13), which a reference
// hand-over on drain would extend, and TestDrainPlannedMigration drives it.
func (c *Cluster) Drain(i int) (target string, redirected int, err error) {
	if i < 0 || i >= len(c.members) {
		return "", 0, fmt.Errorf("cluster: no member %d", i)
	}
	m := c.members[i]
	m.mu.Lock()
	m.state = Draining
	m.mu.Unlock()
	t, err := c.pick(i)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: drain %s: %w", m.name, err)
	}
	n := m.srv.RedirectSessions(t.Addr, "drain")
	c.logf("drained %s: %d session(s) redirected to %s", m.name, n, t.Name)
	return t.Addr, n, nil
}

// Kill stops member i abruptly — listener and live connections die with no
// drain, the chaos "server died mid-clip" primitive. The member is marked
// down immediately; the prober keeps it down until it actually recovers.
func (c *Cluster) Kill(i int) {
	if i < 0 || i >= len(c.members) {
		return
	}
	m := c.members[i]
	m.mu.Lock()
	m.state = Down
	m.killed = true
	m.consecOK = 0
	m.mu.Unlock()
	m.srv.Kill()
	c.logf("killed member %s", m.name)
}

// Close stops the prober and hard-stops every member.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.stopc) })
	for _, m := range c.members {
		m.srv.Kill()
	}
	c.wg.Wait()
}
