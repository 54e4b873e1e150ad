// Package chaos is the deterministic fault-injection layer: the faults the
// real world does to a mobile uplink and to the edge behind it, reproduced
// exactly so resilience tests are replayable.
//
// It operates at three levels:
//
//   - Transport: Proxy is an in-process TCP relay between a real agent and a
//     real edge server whose faults are scripted by the test that drives it:
//     CutConnections severs every live session, SetBlackout refuses new ones,
//     CorruptNextUplink flips one byte of an upcoming uplink chunk.
//   - Simulation: scenario.go builds netsim.Trace bandwidth shapes — outage
//     bursts, bandwidth cliffs, estimator-poisoning flutter — reusable by the
//     simulator, the fleet model and the experiment harness; FindScenario
//     resolves one by name.
//   - Cluster: Victim is the seeded pick of the member a kill drill stops.
package chaos

import "math/rand"

// Victim picks the member of a members-strong cluster that a seeded kill
// drill stops: the same seed on the same cluster size always names the same
// member.
func Victim(seed int64, members int) int {
	if members <= 1 {
		return 0
	}
	return rand.New(rand.NewSource(seed)).Intn(members)
}
