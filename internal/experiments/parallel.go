package experiments

import "dive/internal/parallel"

// workers bounds the harness fan-out. Experiments fan independent work —
// the clips inside one scheme evaluation, the (scheme, bandwidth) cells of
// a sweep — across it; every result lands in a pre-sized slot indexed by
// job, so tables are identical at any width. 0, what every program runs,
// sizes it to GOMAXPROCS; the package's tests set other widths.
var workers int

func pool() *parallel.Pool { return parallel.New(workers) }
