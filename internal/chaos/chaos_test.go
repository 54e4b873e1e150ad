package chaos

import "testing"

func TestVictimSeededDeterministic(t *testing.T) {
	// Seed 42 on three members is the cluster drill's (ci/cluster_smoke.sh,
	// TestRunLiveClusterKill), which requires it to kill member 2.
	if v := Victim(42, 3); v != 2 {
		t.Fatalf("Victim(42, 3) = %d, want 2", v)
	}
	a := Victim(7, 5)
	if b := Victim(7, 5); a != b {
		t.Fatalf("same seed picked victims %d and %d", a, b)
	}
	if a < 0 || a >= 5 {
		t.Fatalf("victim %d outside the member range", a)
	}
	if Victim(8, 5) == a && Victim(9, 5) == a && Victim(10, 5) == a {
		t.Error("four different seeds all picked the same victim")
	}
	if v := Victim(7, 1); v != 0 {
		t.Errorf("Victim(7, 1) = %d, want the only member 0", v)
	}
}
