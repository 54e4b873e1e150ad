//go:build race

package fleet

// raceEnabled reports that the test binary was built with -race, under which
// wall-clock bounds are not asserted.
const raceEnabled = true
