package edge

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/obs"
	"dive/internal/world"
)

// BackoffConfig shapes the client's reconnect schedule: exponential growth
// from Initial to Max with seeded multiplicative jitter, giving up after
// MaxAttempts consecutive failures.
type BackoffConfig struct {
	Initial time.Duration // first retry delay (default 100ms)
	Max     time.Duration // delay ceiling (default 3s)
	// MaxAttempts bounds consecutive failed dials before Run gives up
	// (default 8).
	MaxAttempts int
}

const (
	backoffFactor = 2 // delay growth per attempt
	// backoffJitter spreads each delay uniformly over [1-j, 1+j] times the
	// base — reconnect storms from co-located agents must not synchronize.
	backoffJitter    = 0.25
	handshakeTimeout = 10 * time.Second // the dial, then the Hello and its ack
)

func (b BackoffConfig) withDefaults() BackoffConfig {
	if b.Initial <= 0 {
		b.Initial = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 3 * time.Second
	}
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 8
	}
	return b
}

// delay returns the jittered backoff for the given 0-based attempt.
func (b BackoffConfig) delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(b.Initial)
	for i := 0; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	d *= 1 - backoffJitter + 2*backoffJitter*rng.Float64()
	return time.Duration(d)
}

// ClientConfig configures a resilient live session.
type ClientConfig struct {
	Addr string
	// Addrs is the ordered failover candidate list (cluster members). When
	// set it supersedes Addr; when empty the client dials Addr only. Each
	// candidate carries a dial-failure penalty so reconnects prefer servers
	// that have not recently refused us — failover works even when no
	// explicit Redirect ever arrives.
	Addrs []string
	// Profile/Seed/Duration are the clip identity sent in the handshake.
	Profile  string
	Seed     int64
	Duration float64
	// Window is the maximum number of frames in flight to the server
	// (default 1 = lock-step).
	Window int
	// AckTimeout is the per-frame acknowledgement deadline: a frame unacked
	// past it is declared outaged, local MOT covers it, and the next upload
	// is intra-coded (default 1s).
	AckTimeout time.Duration
	// PaceBps throttles uplink writes to the given rate (0 = unpaced),
	// which also provides the bandwidth estimator's feedback signal.
	PaceBps float64
	Backoff BackoffConfig
	// Logf receives progress lines; nil silences the client.
	Logf func(format string, args ...interface{})
	Obs  *obs.Recorder
	// OnMigrate is invoked after each completed handoff with the old and new
	// addresses and whether the move was forced (old member died) — the hook
	// fleet aggregation uses to attribute migrations to members. Called from
	// the session goroutine; keep it fast. Nil disables.
	OnMigrate func(from, to string, forced bool)
}

// ClientStats summarizes a session's robustness events.
type ClientStats struct {
	FramesProcessed int
	FramesUploaded  int
	// FramesSkipped counts uploads suppressed by the degradation ladder.
	FramesSkipped int
	// OutageFrames counts ack-deadline expiries (MOT covered those frames).
	OutageFrames int
	Reconnects   int
	// Nacks counts server keyframe demands (corruption or desync).
	Nacks int
	// CorruptAcks counts downlink messages the client discarded on CRC or
	// framing damage.
	CorruptAcks int
	// Migrations counts completed session handoffs to a different server;
	// ForcedMigrations is the subset where the old member died (no Redirect).
	Migrations       int
	ForcedMigrations int
	// Redirects counts Redirect messages received; BadRedirects the subset
	// rejected without dialing (malformed, empty or self-referential).
	Redirects    int
	BadRedirects int
	// MigrationGapsSec holds each handoff's measured re-detection gap (last
	// server ack on the old member → first server ack on the new one);
	// MaxMigrationGapSec is their maximum.
	MigrationGapsSec   []float64
	MaxMigrationGapSec float64
	// FinalLevel and FinalHealth are the ladder state at session end.
	FinalLevel  core.LadderLevel
	FinalHealth float64
}

// Client streams a DiVE agent's encoded frames to an edge server over TCP
// and survives the link failing under it: per-ack deadlines trigger the MOT
// outage fallback, disconnects trigger jittered-backoff reconnects with a
// session-resume handshake, server NACKs force keyframes, and a link-health
// ladder degrades encode quality before the link collapses entirely.
type Client struct {
	cfg     ClientConfig
	agent   *core.Agent
	health  *core.LinkHealth
	rng     *rand.Rand
	stats   ClientStats
	session string

	conn net.Conn
	acks chan ackEvent
	// ackTimer is awaitAck's deadline, one per Client, reset per wait.
	ackTimer *time.Timer

	// addrs is the resolved candidate list; curAddr the member currently
	// serving the session; penalty the per-address dial-failure score that
	// ranks candidates (reset to zero on a successful handshake, so a
	// completed redirect never inherits the previous server's penalty).
	addrs   []string
	curAddr string
	penalty map[string]int

	// inflight holds sent-but-unacked frames in send order.
	inflight []inflightFrame
	// pendingReconnects/pendingBackoff accumulate reconnect accounting to
	// journal on the next processed frame.
	pendingReconnects int
	pendingBackoff    float64
	// skippedSinceSend marks that uploads were suppressed, so the next
	// sent frame must be intra-coded (the server's reference is stale).
	skippedSinceSend bool

	// pendingRedirect is a validated Redirect awaiting the dial; migration
	// tracks a completed handoff until the new member's first ack closes the
	// re-detection gap. lastServerAck is that gap's opening edge: the last
	// server ack, or session start while no member has acked anything.
	pendingRedirect *Redirect
	migration       *migrationInfo
	lastServerAck   time.Time
}

// migrationInfo is one in-progress handoff: where the session moved, why,
// and when the old member last produced a detection (the gap clock's start).
type migrationInfo struct {
	from   string
	to     string
	reason string
	forced bool
	lostAt time.Time
}

// errFollowRedirect signals the session loop that a validated Redirect
// arrived: tear down and re-dial at the target (no ladder penalty).
var errFollowRedirect = errors.New("edge: following redirect")

type inflightFrame struct {
	idx    int
	sentAt time.Time
	fr     *core.FrameResult
}

// ackEvent is one message the downlink reader saw: a kind and, for two of
// the kinds, its payload. A transport failure is not an event: the reader
// closes the channel.
type ackEvent struct {
	kind ackKind
	res  ResultMsg // ackResult
	rd   Redirect  // ackRedirect
}

type ackKind uint8

const (
	ackResult      ackKind = iota // a well-formed ResultMsg
	ackCorrupt                    // a damaged downlink message, discarded (non-fatal)
	ackRedirect                   // a well-formed Redirect
	ackBadRedirect                // a Redirect that failed decode: counted, never dialed
)

// NewClient builds a client around an existing agent. The agent's encoder
// state is owned by the client for the duration of Run.
func NewClient(cfg ClientConfig, agent *core.Agent) *Client {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = time.Second
	}
	cfg.Backoff = cfg.Backoff.withDefaults()
	addrs := cfg.Addrs
	if len(addrs) == 0 {
		addrs = []string{cfg.Addr}
	}
	return &Client{
		cfg:     cfg,
		agent:   agent,
		health:  core.NewLinkHealth(),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		addrs:   addrs,
		penalty: make(map[string]int, len(addrs)),
		// The same profile-seed identity the server labels this stream
		// with, so both ends' series and SLO windows join on it.
		session: fmt.Sprintf("%s-%d", cfg.Profile, cfg.Seed),
	}
}

// pickAddr returns the best dial candidate: lowest dial-failure penalty,
// list order breaking ties — so a healthy primary is always preferred and a
// dead one is demoted only as long as its failures are fresher.
func (c *Client) pickAddr() string {
	best := c.addrs[0]
	for _, a := range c.addrs[1:] {
		if c.penalty[a] < c.penalty[best] {
			best = a
		}
	}
	return best
}

func (c *Client) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Handshake is the client half of the session handshake: dial addr, send
// hello, read the server's ack and reject on its Err (unknown profile, bad
// resume point) — all within timeout, after which the connection carries no
// deadline. The returned reader has consumed exactly the ack.
func Handshake(addr string, hello Hello, timeout time.Duration) (net.Conn, *MsgReader, ResultMsg, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, ResultMsg{}, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	mr := NewMsgReader(conn)
	ack, err := helloAck(conn, mr, hello)
	if err != nil {
		conn.Close()
		return nil, nil, ack, err
	}
	conn.SetDeadline(time.Time{})
	return conn, mr, ack, nil
}

// helloAck sends the Hello and reads its ack.
func helloAck(conn net.Conn, mr *MsgReader, hello Hello) (ResultMsg, error) {
	if err := WriteHello(conn, hello); err != nil {
		return ResultMsg{}, err
	}
	typ, payload, err := mr.Next()
	if err != nil {
		return ResultMsg{}, fmt.Errorf("handshake ack: %w", err)
	}
	if typ != MsgResult {
		return ResultMsg{}, fmt.Errorf("handshake ack: unexpected message type %d", typ)
	}
	ack, err := DecodeResultMsg(payload)
	if err != nil {
		return ack, fmt.Errorf("handshake ack: %w", err)
	}
	if ack.Err != "" {
		return ack, fmt.Errorf("server rejected session: %s", ack.Err)
	}
	return ack, nil
}

// connectTo completes the handshake (plain or resume) at one address and
// installs the connection and a fresh ack reader. firstFrame is the index the
// stream will continue at. A failed dial or handshake raises the address's
// penalty; success clears it, so a server that comes back (or one we were
// redirected onto) starts with a clean score.
func (c *Client) connectTo(addr string, resume bool, firstFrame int) error {
	conn, mr, _, err := Handshake(addr, Hello{
		Profile: c.cfg.Profile, Seed: c.cfg.Seed, Duration: c.cfg.Duration,
		Resume: resume, FirstFrame: firstFrame,
	}, handshakeTimeout)
	if err != nil {
		c.penalty[addr]++
		return err
	}
	c.conn, c.curAddr, c.penalty[addr] = conn, addr, 0
	// Window+4 leaves room for the redirect and corrupt events that can
	// arrive on top of one result per in-flight frame.
	c.acks = make(chan ackEvent, c.cfg.Window+4)
	go readAcks(conn, mr, c.acks)
	if resume {
		c.forceIntra()
	}
	return nil
}

// forceIntra: the server's reference is gone — fresh decoder after a resume,
// stale after skipped uploads — so the next upload is intra.
func (c *Client) forceIntra() {
	c.agent.ForceNextIFrame()
	c.skippedSinceSend = false
}

// readAcks pumps downlink results into the ack channel until the transport
// fails. Recoverable wire damage (CRC, malformed) is reported as a corrupt
// event and reading continues.
func readAcks(conn net.Conn, mr *MsgReader, out chan<- ackEvent) {
	defer close(out)
	for {
		conn.SetReadDeadline(time.Now().Add(120 * time.Second))
		typ, payload, err := mr.Next()
		if err != nil && !IsRecoverable(err) {
			return
		}
		// Anything but a well-formed result or redirect is a corrupt event.
		ev := ackEvent{kind: ackCorrupt}
		switch {
		case err != nil:
		case typ == MsgRedirect:
			ev.kind = ackBadRedirect
			if rd, derr := DecodeRedirect(payload); derr == nil {
				ev = ackEvent{kind: ackRedirect, rd: rd}
			}
		case typ == MsgResult:
			if res, derr := DecodeResultMsg(payload); derr == nil {
				ev = ackEvent{kind: ackResult, res: res}
			}
		}
		out <- ev
	}
}

// teardown is how a connection ends: close it and write off every in-flight
// frame (their acks are gone) as outage-tracked.
func (c *Client) teardown(dets [][]detect.Detection) {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	for _, inf := range c.inflight {
		c.noteFrameOutage(inf, dets)
	}
	c.inflight = c.inflight[:0]
}

// recover re-establishes the session after the transport failed or a
// Redirect arrived; nextFrame is where the stream resumes. A pending redirect
// is tried first as a planned migration — a direct dial at the target with no
// backoff sleep and no ladder penalty, because a drain handoff is an orderly
// control-plane event, not link failure. If the target refuses (or there was
// no redirect), the ranked candidate scan takes over, with backoff and jitter
// before each attempt; landing on a different member than the one that failed
// is a forced migration. When nothing is left to stream (nextFrame is the
// clip's end, the length of dets) the teardown is the whole recovery, as in
// Run's tail drain: a server refuses a resume there.
func (c *Client) recover(nextFrame int, dets [][]detect.Detection) error {
	from, lostAt := c.curAddr, c.lastServerAck
	c.teardown(dets)
	if nextFrame == len(dets) {
		return nil
	}
	if rd := c.pendingRedirect; rd != nil {
		c.pendingRedirect = nil
		err := c.connectTo(rd.Addr, true, nextFrame)
		if err == nil {
			c.noteMigration(&migrationInfo{from: from, to: rd.Addr, reason: rd.Reason, lostAt: lostAt}, nextFrame)
			return nil
		}
		c.logf("redirect target %s refused: %v; falling back to candidate scan", rd.Addr, err)
	}
	c.health.ObserveReconnect()
	var totalBackoff float64
	for attempt := 0; attempt < c.cfg.Backoff.MaxAttempts; attempt++ {
		d := c.cfg.Backoff.delay(attempt, c.rng)
		time.Sleep(d)
		totalBackoff += d.Seconds()
		c.stats.Reconnects++
		addr := c.pickAddr()
		err := c.connectTo(addr, true, nextFrame)
		if err == nil {
			c.pendingReconnects += attempt + 1
			c.pendingBackoff += totalBackoff
			if addr != from && from != "" {
				// The session moved because the old member went away.
				c.noteMigration(&migrationInfo{from: from, to: addr, reason: "failover", forced: true, lostAt: lostAt}, nextFrame)
			}
			c.logf("reconnected to %s (attempt %d, resume at frame %d)", addr, attempt+1, nextFrame)
			return nil
		}
		// Every failed dial is further link evidence: a long blackout digs
		// the score deeper, so the ladder is already engaged when the
		// session comes back instead of resuming at full quality.
		c.health.ObserveReconnect()
		c.logf("reconnect attempt %d to %s failed: %v", attempt+1, addr, err)
	}
	c.pendingReconnects += c.cfg.Backoff.MaxAttempts
	c.pendingBackoff += totalBackoff
	return fmt.Errorf("edge: reconnect failed after %d attempts (candidates %v)", c.cfg.Backoff.MaxAttempts, c.addrs)
}

// noteMigration records a completed handoff; the re-detection gap closes at
// the new member's first successful ack.
func (c *Client) noteMigration(m *migrationInfo, nextFrame int) {
	c.migration = m
	c.stats.Migrations++
	if m.forced {
		c.stats.ForcedMigrations++
	}
	kind := "planned"
	if m.forced {
		kind = "forced"
	}
	c.logf("migrated to %s (%s, reason %q, resume at frame %d)", m.to, kind, m.reason, nextFrame)
	if c.cfg.OnMigrate != nil {
		c.cfg.OnMigrate(m.from, m.to, m.forced)
	}
}

// noteFrameOutage performs the MOT fallback for one lost frame.
func (c *Client) noteFrameOutage(inf inflightFrame, dets [][]detect.Detection) {
	c.stats.OutageFrames++
	tracked := c.agent.TrackLocally(inf.fr.RawField)
	if inf.idx < len(dets) {
		dets[inf.idx] = tracked
	}
	c.agent.NoteOutageAt(inf.idx, time.Since(inf.sentAt).Seconds(), len(tracked))
	c.agent.ForceNextIFrame()
	c.cfg.Obs.ObserveSLO(c.session, obs.SLOSample{
		LatencySec: time.Since(inf.sentAt).Seconds(), FGShare: inf.fr.FGShare(), Outage: true,
	})
}

// popInflight removes and returns the in-flight entry with the given index.
func (c *Client) popInflight(idx int) (inflightFrame, bool) {
	for k, inf := range c.inflight {
		if inf.idx == idx {
			c.inflight = append(c.inflight[:k], c.inflight[k+1:]...)
			return inf, true
		}
	}
	return inflightFrame{}, false
}

// handleAck is the ack channel's one intake: it folds a downlink event into
// session state. ok is the channel receive's, false once the reader stopped.
// Returns a non-nil error only when the caller must recover.
func (c *Client) handleAck(ev ackEvent, ok bool, dets [][]detect.Detection) error {
	if !ok {
		return io.EOF
	}
	switch ev.kind {
	case ackCorrupt:
		c.stats.CorruptAcks++
		c.health.ObserveNack()
		return nil
	case ackBadRedirect:
		// Malformed redirect (empty addr, oversized strings): message-local
		// damage. Never dialed, session continues on the current member.
		c.stats.BadRedirects++
		return nil
	case ackRedirect:
		c.stats.Redirects++
		if ev.rd.Addr == c.curAddr {
			// Self-redirect: well-formed but nonsensical — following it
			// would churn the session for nothing. Reject without dialing.
			c.stats.BadRedirects++
			c.logf("ignoring self-redirect to %s", ev.rd.Addr)
			return nil
		}
		rd := ev.rd
		c.pendingRedirect = &rd
		return errFollowRedirect
	}
	res := ev.res
	if res.NeedKeyframe {
		c.stats.Nacks++
		c.health.ObserveNack()
		c.agent.ForceNextIFrame()
	}
	if res.Index < 0 {
		// Session-level NACK: some uplink message was damaged. The affected
		// frame (if any) will hit its ack deadline; nothing else to do.
		return nil
	}
	inf, ok := c.popInflight(res.Index)
	if !ok {
		// Stale ack for a frame already written off as outaged.
		return nil
	}
	if res.NeedKeyframe {
		c.cfg.Obs.AmendJournalFrame(res.Index, func(j *obs.JournalRecord) { j.NackKeyframe = true })
	}
	if res.Err != "" {
		// The server processed the message but not the frame (desync,
		// decode failure): MOT covers it.
		c.noteFrameOutage(inf, dets)
		return nil
	}
	if !res.NeedKeyframe {
		c.health.ObserveAck()
	}
	// First successful ack on the new member closes the re-detection gap:
	// the edge is producing detections for this session again.
	if m := c.migration; m != nil {
		gap := time.Since(m.lostAt).Seconds()
		c.stats.MigrationGapsSec = append(c.stats.MigrationGapsSec, gap)
		if gap > c.stats.MaxMigrationGapSec {
			c.stats.MaxMigrationGapSec = gap
		}
		forced := m.forced
		to := m.to
		c.cfg.Obs.AmendJournalFrame(res.Index, func(j *obs.JournalRecord) {
			j.Migrated = true
			j.MigrationGapSec = gap
			j.MigratedTo = to
			j.MigrationForced = forced
		})
		c.logf("re-detection gap closed: %.3fs (migrated to %s)", gap, to)
		c.migration = nil
	}
	c.lastServerAck = time.Now()
	// End-to-end response latency (send → ack) feeds both the SLO window
	// and the e2e histogram the fleet aggregator merges across sessions.
	rtt := time.Since(inf.sentAt).Seconds()
	c.cfg.Obs.Histogram(obs.StageResponse).Observe(rtt)
	c.cfg.Obs.ObserveSLO(c.session, obs.SLOSample{
		LatencySec: rtt, FGShare: inf.fr.FGShare(),
	})
	got := FromWire(res.Detections)
	c.agent.OnDetections(got)
	if res.Index < len(dets) {
		dets[res.Index] = got
	}
	return nil
}

// awaitAck blocks until one downlink event arrives or the oldest in-flight
// frame's deadline expires (which declares that frame outaged). Returns a
// transport error when the connection died. Callers hold a frame in flight.
func (c *Client) awaitAck(dets [][]detect.Detection) error {
	oldest := c.inflight[0]
	wait := max(0, time.Until(oldest.sentAt.Add(c.cfg.AckTimeout)))
	if c.ackTimer == nil {
		c.ackTimer = time.NewTimer(wait)
	} else {
		// Pre-1.23 timer semantics (go.mod): a Reset must follow a Stop
		// that drained any expiry the last wait left unread.
		if !c.ackTimer.Stop() {
			select {
			case <-c.ackTimer.C:
			default:
			}
		}
		c.ackTimer.Reset(wait)
	}
	select {
	case ev, ok := <-c.acks:
		return c.handleAck(ev, ok, dets)
	case <-c.ackTimer.C:
		// Ack deadline: the oldest frame is written off, MOT covers it,
		// the link is penalized. The connection stays up — a late ack for
		// it will be ignored as stale.
		c.health.ObserveTimeout()
		if inf, ok := c.popInflight(oldest.idx); ok {
			c.noteFrameOutage(inf, dets)
		}
		return nil
	}
}

// Run streams the clip through the agent to the server and returns
// per-frame detections (edge results where the link held, MOT-tracked
// detections across outages and skips). Run returns an error only when the
// session cannot be established or re-established; link failures inside a
// session degrade, they do not abort.
func (c *Client) Run(clip *world.Clip) ([][]detect.Detection, ClientStats, error) {
	n := clip.NumFrames()
	dets := make([][]detect.Detection, n)
	// The initial connect gets the same backoff schedule as reconnects: an
	// agent booting during a link brownout should not abort on the first
	// refused dial.
	var cerr error
	for attempt := 0; attempt < c.cfg.Backoff.MaxAttempts; attempt++ {
		if cerr = c.connectTo(c.pickAddr(), false, 0); cerr == nil {
			break
		}
		c.logf("connect attempt %d failed: %v", attempt+1, cerr)
		time.Sleep(c.cfg.Backoff.delay(attempt, c.rng))
	}
	if cerr != nil {
		return nil, c.stats, fmt.Errorf("edge: connect to %v: %w", c.addrs, cerr)
	}
	defer c.teardown(dets)
	start := time.Now()
	c.lastServerAck = start

	for i := 0; i < n; i++ {
		// Ladder first: the frame is encoded under the degradation the
		// link's recent behavior earned.
		deg := c.health.Tick()
		c.agent.SetDegradation(deg, c.health.Score())

		// Drain any already-arrived acks without blocking progress.
		for drained := false; !drained; {
			select {
			case ev, ok := <-c.acks:
				if err := c.handleAck(ev, ok, dets); err != nil {
					if rerr := c.recover(i, dets); rerr != nil {
						return dets, c.stats, rerr
					}
				}
			default:
				drained = true
			}
		}

		skip := deg.SkipModulo > 1 && i%deg.SkipModulo != 0
		if skip {
			// The server's reference goes stale: the next upload is intra.
			c.skippedSinceSend = true
		} else if c.skippedSinceSend {
			c.forceIntra()
		}

		now := time.Since(start).Seconds()
		fr, err := c.agent.ProcessFrame(clip.Frames[i], now)
		if err != nil {
			return dets, c.stats, err
		}
		c.stats.FramesProcessed++
		if c.pendingReconnects > 0 {
			rc, bo := c.pendingReconnects, c.pendingBackoff
			c.pendingReconnects, c.pendingBackoff = 0, 0
			c.cfg.Obs.AmendJournalFrame(fr.Encoded.Index, func(j *obs.JournalRecord) {
				j.ReconnectAttempts = rc
				j.BackoffSec = bo
			})
		}

		if skip {
			c.stats.FramesSkipped++
			c.cfg.Obs.AmendJournalFrame(fr.Encoded.Index, func(j *obs.JournalRecord) { j.SkippedSend = true })
			tracked := c.agent.TrackLocally(fr.RawField)
			dets[i] = tracked
			continue
		}

		// Upload with pacing; a write failure means the connection is dead.
		sendStart := time.Since(start).Seconds()
		c.conn.SetWriteDeadline(time.Now().Add(2 * c.cfg.AckTimeout))
		werr := WriteFrame(c.conn, &FrameMsg{
			Index: fr.Encoded.Index, Bitstream: fr.Encoded.Data,
			SentNanos: time.Now().UnixNano(),
			TraceID:   fr.Trace.TraceID, SpanID: fr.Trace.SpanID,
		})
		if werr == nil && c.cfg.PaceBps > 0 {
			time.Sleep(time.Duration(float64(fr.Encoded.NumBits) / c.cfg.PaceBps * float64(time.Second)))
		}
		if werr != nil {
			c.logf("uplink write failed at frame %d: %v", i, werr)
			// This frame never made it: treat it as in flight so the drain
			// journals it, then reconnect and continue with the next frame.
			c.inflight = append(c.inflight, inflightFrame{idx: fr.Encoded.Index, sentAt: time.Now(), fr: fr})
			if rerr := c.recover(i+1, dets); rerr != nil {
				return dets, c.stats, rerr
			}
			continue
		}
		c.stats.FramesUploaded++
		c.agent.OnTransmitComplete(sendStart, time.Since(start).Seconds(), fr.Encoded.NumBits)
		c.inflight = append(c.inflight, inflightFrame{idx: fr.Encoded.Index, sentAt: time.Now(), fr: fr})

		// Respect the in-flight window (Window=1 is lock-step).
		for len(c.inflight) >= c.cfg.Window {
			if err := c.awaitAck(dets); err != nil {
				if rerr := c.recover(i+1, dets); rerr != nil {
					return dets, c.stats, rerr
				}
				break
			}
		}
	}

	// Drain the tail: wait for every outstanding ack (or its deadline).
	for len(c.inflight) > 0 {
		if err := c.awaitAck(dets); err != nil {
			// The server went away with frames outstanding (mid-stream
			// close): journal them as outage-tracked and exit cleanly —
			// there is nothing left to resume for.
			c.teardown(dets)
			break
		}
	}
	// Backfill any frame that never got a result (MOT kept lastDets warm).
	for i := range dets {
		if dets[i] == nil {
			dets[i] = c.agent.LastDetections()
		}
	}
	c.stats.FinalLevel = c.health.Level()
	c.stats.FinalHealth = c.health.Score()
	return dets, c.stats, nil
}
