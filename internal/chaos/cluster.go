package chaos

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Cluster chaos: seeded whole-member fault schedules. Where scenario.go
// scripts the link under one session, a ClusterScenario scripts the edge
// side of a whole fleet — a member dying mid-clip, a member dropping off the
// network and coming back — and carries the bound the run is graded against
// (the re-detection gap budget). The scenario only decides *what* happens
// *when*; it drives whatever implements ClusterControl, so the same schedule
// runs against the in-process cluster in tests and CI.

// ClusterControl is the handle a cluster scenario drives. Implemented by
// cluster.Cluster (declared here so chaos stays import-light).
type ClusterControl interface {
	// Kill stops member i abruptly (no drain, no redirect).
	Kill(i int)
	// Partition blacks out member i's network path (on) or restores it.
	Partition(i int, on bool) error
}

// Member fault kinds.
const (
	FaultKill      = "kill"
	FaultPartition = "partition"
)

// MemberFault is one scheduled whole-member fault.
type MemberFault struct {
	// AtSec is when the fault fires, seconds from schedule start.
	AtSec float64
	// Member is the victim index.
	Member int
	// Kind is FaultKill or FaultPartition.
	Kind string
	// HealAtSec, for partitions, is when connectivity returns (0 = never).
	HealAtSec float64
}

// ClusterScenario is a named, seeded member-fault schedule plus its grading
// bound.
type ClusterScenario struct {
	Name   string
	Faults []MemberFault
	// GapBudgetSec bounds the re-detection gap every affected session may
	// see: the time from the last detection served by the failed member to
	// the first detection served by its replacement.
	GapBudgetSec float64
}

// KillMember returns the kill-a-server scenario: one member, chosen by seed,
// dies at frac of the way through a duration-second run and never returns.
func KillMember(seed int64, members int, duration, frac, gapBudgetSec float64) ClusterScenario {
	rng := rand.New(rand.NewSource(seed))
	victim := 0
	if members > 1 {
		victim = rng.Intn(members)
	}
	return ClusterScenario{
		Name: "kill-member",
		Faults: []MemberFault{
			{AtSec: duration * frac, Member: victim, Kind: FaultKill},
		},
		GapBudgetSec: gapBudgetSec,
	}
}

// Apply schedules the scenario's faults against ctl on the wall clock,
// measured from the moment of the call. The returned stop function cancels
// pending faults and waits for in-flight ones; faults already fired are not
// undone (a killed member stays killed).
func (s ClusterScenario) Apply(ctl ClusterControl) (stop func()) {
	type event struct {
		atSec  float64
		member int
		kind   string
		heal   bool
	}
	var events []event
	for _, f := range s.Faults {
		events = append(events, event{atSec: f.AtSec, member: f.Member, kind: f.Kind})
		if f.Kind == FaultPartition && f.HealAtSec > f.AtSec {
			events = append(events, event{atSec: f.HealAtSec, member: f.Member, kind: f.Kind, heal: true})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].atSec < events[j].atSec })

	stopc := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for _, ev := range events {
			wait := time.Duration(ev.atSec*float64(time.Second)) - time.Since(start)
			if wait > 0 {
				select {
				case <-stopc:
					return
				case <-time.After(wait):
				}
			}
			switch ev.kind {
			case FaultKill:
				ctl.Kill(ev.member)
			case FaultPartition:
				ctl.Partition(ev.member, !ev.heal)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopc) })
		wg.Wait()
	}
}
