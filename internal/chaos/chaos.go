// Package chaos is the deterministic fault-injection layer: everything the
// real world does to a mobile uplink — byte corruption, stalls, mid-stream
// disconnects, bandwidth throttling, full blackouts — reproduced on a seeded
// schedule so resilience tests are exact and replayable.
//
// It operates at two levels:
//
//   - Transport: Proxy is an in-process TCP relay that applies
//     per-direction fault plans, at seeded byte offsets, between a real agent
//     and a real edge server, plus programmatic triggers (CutConnections,
//     SetBlackout, CorruptNextUplink) for scripted scenarios.
//   - Simulation: scenario.go builds netsim.Trace bandwidth shapes — outage
//     bursts, bandwidth cliffs, estimator-poisoning flutter — reusable by the
//     simulator and the experiment harness.
//
// Faults are scheduled against byte offsets, not wall-clock time, wherever
// possible: the same seed corrupts the same byte of the same message no
// matter how fast the machine is.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// PlanConfig schedules faults for one direction of a byte stream. The zero
// value injects nothing. All schedules are deterministic in Seed.
type PlanConfig struct {
	// Seed drives every randomized choice (offsets, corruption values).
	Seed int64
	// CorruptEvery is the mean gap in bytes between single-byte
	// corruptions (XOR with a non-zero value). 0 disables corruption.
	CorruptEvery int
	// StallEvery is the mean gap in bytes between injected stalls of
	// StallFor. 0 disables stalls.
	StallEvery int
	// StallFor is how long each injected stall lasts.
	StallFor time.Duration
	// DisconnectAfter severs the connection once this many bytes have
	// passed. 0 disables injected disconnects.
	DisconnectAfter int
	// ThrottleBps paces the stream to this many bits per second.
	// 0 leaves the stream unthrottled.
	ThrottleBps int
}

// faultStream applies one PlanConfig to a sequence of byte chunks. It is the
// engine behind Proxy (and the tests' conn wrapper): callers pass each chunk
// through apply() before handing it to the underlying writer.
type faultStream struct {
	cfg PlanConfig
	rng *rand.Rand

	mu          sync.Mutex
	offset      int // bytes passed so far
	nextCorrupt int // absolute offset of the next corruption (-1 = none)
	nextStall   int // absolute offset of the next stall (-1 = none)
	// corruptOnce queues programmatic corruptions (absolute offsets)
	// independent of the seeded schedule.
	corruptOnce []int
	severed     bool
}

func newFaultStream(cfg PlanConfig) *faultStream {
	fs := &faultStream{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nextCorrupt: -1, nextStall: -1}
	if cfg.CorruptEvery > 0 {
		fs.nextCorrupt = fs.gap(cfg.CorruptEvery)
	}
	if cfg.StallEvery > 0 && cfg.StallFor > 0 {
		fs.nextStall = fs.gap(cfg.StallEvery)
	}
	return fs
}

// gap draws the next fault offset: uniform in [mean/2, 3*mean/2), so faults
// neither bunch at zero nor drift unboundedly.
func (fs *faultStream) gap(mean int) int {
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	return fs.offset + lo + fs.rng.Intn(mean+1)
}

// corruptAt queues a one-shot corruption n bytes from the current offset.
func (fs *faultStream) corruptAt(relOffset int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.corruptOnce = append(fs.corruptOnce, fs.offset+relOffset)
}

// stallDelay is returned by apply when the caller should sleep before
// forwarding the chunk; keeping the sleep outside the lock keeps apply
// reentrant.
type applyResult struct {
	chunk    []byte // possibly mutated in place
	sleep    time.Duration
	severed  bool // disconnect fired inside this chunk; chunk holds the prefix
	corrupts int
}

// apply advances the stream by chunk, injecting scheduled faults. The chunk
// may be mutated in place (corruption) or truncated (disconnect).
func (fs *faultStream) apply(chunk []byte) applyResult {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res := applyResult{chunk: chunk}
	if fs.severed {
		res.severed = true
		res.chunk = nil
		return res
	}
	start, end := fs.offset, fs.offset+len(chunk)

	// Throttle: serialized duration of this chunk at the configured rate.
	if fs.cfg.ThrottleBps > 0 {
		res.sleep += time.Duration(float64(len(chunk)*8) / float64(fs.cfg.ThrottleBps) * float64(time.Second))
	}
	// Stall schedule.
	if fs.nextStall >= 0 && fs.nextStall < end {
		res.sleep += fs.cfg.StallFor
		fs.nextStall = fs.gapFrom(end, fs.cfg.StallEvery)
	}
	// Seeded corruption schedule.
	for fs.nextCorrupt >= 0 && fs.nextCorrupt < end {
		if fs.nextCorrupt >= start {
			chunk[fs.nextCorrupt-start] ^= byte(1 + fs.rng.Intn(255))
			res.corrupts++
		}
		fs.nextCorrupt = fs.gapFrom(end, fs.cfg.CorruptEvery)
	}
	// Programmatic one-shot corruptions.
	keep := fs.corruptOnce[:0]
	for _, at := range fs.corruptOnce {
		if at >= start && at < end {
			chunk[at-start] ^= byte(1 + fs.rng.Intn(255))
			res.corrupts++
		} else if at >= end {
			keep = append(keep, at)
		}
	}
	fs.corruptOnce = keep
	// Disconnect schedule: truncate the chunk at the cut point.
	if fs.cfg.DisconnectAfter > 0 && end > fs.cfg.DisconnectAfter {
		cut := fs.cfg.DisconnectAfter - start
		if cut < 0 {
			cut = 0
		}
		res.chunk = chunk[:cut]
		res.severed = true
		fs.severed = true
		fs.offset = fs.cfg.DisconnectAfter
		return res
	}
	fs.offset = end
	return res
}

// gapFrom is gap() anchored at a specific offset.
func (fs *faultStream) gapFrom(from, mean int) int {
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	return from + lo + fs.rng.Intn(mean+1)
}
