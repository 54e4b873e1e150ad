package experiments

import (
	"reflect"
	"testing"
)

// TestFanOutDeterministicOrdering runs the Figure 16 end-to-end sweep
// sequentially and with an 8-wide harness fan-out: rows must match
// cell-for-cell — same order, same values — because results land in slots
// indexed by (bandwidth, scheme) and every per-cell simulation is seeded
// independently of scheduling.
func TestFanOutDeterministicOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep skipped in -short")
	}
	defer func() { workers = 0 }()

	workers = 1
	serial, err := Fig16EndToEndRobotCar(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	workers = 8
	parallel, err := Fig16EndToEndRobotCar(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("row %d differs under fan-out:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

// TestFanOutRepeatable runs the same sweep twice at width 8: identical seeds
// must produce identical tables run-to-run, not just serial-vs-parallel.
func TestFanOutRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep skipped in -short")
	}
	defer func() { workers = 0 }()
	workers = 8
	a, err := Fig16EndToEndRobotCar(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig16EndToEndRobotCar(ScaleSmoke, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two same-seed fan-out runs produced different tables")
	}
}
