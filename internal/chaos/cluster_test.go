package chaos

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeCtl records the faults a scenario fires against it.
type fakeCtl struct {
	mu    sync.Mutex
	kills []int
	parts []string // "<member>:on" / "<member>:off"
}

func (f *fakeCtl) Kill(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills = append(f.kills, i)
}

func (f *fakeCtl) Partition(i int, on bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ev := "off"
	if on {
		ev = "on"
	}
	f.parts = append(f.parts, string(rune('0'+i))+":"+ev)
	return nil
}

func (f *fakeCtl) snapshot() (kills []int, parts []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.kills...), append([]string(nil), f.parts...)
}

func TestKillMemberSeededDeterministic(t *testing.T) {
	a := KillMember(7, 5, 10, 0.5, 2)
	b := KillMember(7, 5, 10, 0.5, 2)
	if len(a.Faults) != 1 || a.Faults[0].Kind != FaultKill {
		t.Fatalf("KillMember = %+v, want one kill fault", a)
	}
	if a.Faults[0].Member != b.Faults[0].Member {
		t.Fatalf("same seed picked victims %d and %d", a.Faults[0].Member, b.Faults[0].Member)
	}
	if v := a.Faults[0].Member; v < 0 || v >= 5 {
		t.Fatalf("victim %d outside the member range", v)
	}
	if a.Faults[0].AtSec != 5 {
		t.Fatalf("kill at %.1fs, want mid-run 5s", a.Faults[0].AtSec)
	}
	if KillMember(8, 5, 10, 0.5, 2).Faults[0].Member == a.Faults[0].Member &&
		KillMember(9, 5, 10, 0.5, 2).Faults[0].Member == a.Faults[0].Member &&
		KillMember(10, 5, 10, 0.5, 2).Faults[0].Member == a.Faults[0].Member {
		t.Error("four different seeds all picked the same victim")
	}
}

func TestApplyFiresDueFaultsAndStopCancelsPending(t *testing.T) {
	ctl := &fakeCtl{}
	s := ClusterScenario{
		Name: "test",
		Faults: []MemberFault{
			{AtSec: 0, Member: 1, Kind: FaultKill},
			{AtSec: 3600, Member: 2, Kind: FaultKill}, // far future; must be cancelled
		},
	}
	stop := s.Apply(ctl)
	deadline := time.Now().Add(5 * time.Second)
	for {
		kills, _ := ctl.snapshot()
		if len(kills) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("due fault never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	kills, _ := ctl.snapshot()
	if len(kills) != 1 || kills[0] != 1 {
		t.Fatalf("kills = %v, want only the due fault on member 1", kills)
	}
}

func TestApplyPartitionHeals(t *testing.T) {
	ctl := &fakeCtl{}
	s := partitionMember(3, 4, 0.1, 0.1, 0.3, 2)
	if s.Faults[0].HealAtSec <= s.Faults[0].AtSec {
		t.Fatalf("heal %.2fs not after fault %.2fs", s.Faults[0].HealAtSec, s.Faults[0].AtSec)
	}
	stop := s.Apply(ctl)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, parts := ctl.snapshot()
		if len(parts) == 2 {
			if parts[0][2:] != "on" || parts[1][2:] != "off" {
				t.Fatalf("partition events %v, want blackout then heal", parts)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition/heal never completed: %v", parts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// partitionMember returns the partition scenario: one member, chosen by
// seed, drops off the network at frac of the run and heals healFrac in — the
// fault Kill cannot model, because the server process stays healthy and only
// the path dies.
func partitionMember(seed int64, members int, duration, frac, healFrac, gapBudgetSec float64) ClusterScenario {
	rng := rand.New(rand.NewSource(seed))
	victim := 0
	if members > 1 {
		victim = rng.Intn(members)
	}
	return ClusterScenario{
		Name: "partition-member",
		Faults: []MemberFault{
			{AtSec: duration * frac, Member: victim, Kind: FaultPartition, HealAtSec: duration * healFrac},
		},
		GapBudgetSec: gapBudgetSec,
	}
}
