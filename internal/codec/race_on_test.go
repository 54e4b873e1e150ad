//go:build race

package codec

// raceEnabled reports that the test binary was built with -race, under which
// the single-goroutine predictor sweep covers one frame size: the detector
// slows it tenfold and has no shared memory in it to watch.
const raceEnabled = true
