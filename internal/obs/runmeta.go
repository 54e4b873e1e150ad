package obs

import "runtime"

// RunMeta records the execution environment of a benchmark or telemetry
// capture (the header of divebench -json), so a reader can tell whether two
// result files are like-for-like: a p95 from a 2-core CI runner says nothing
// about a regression against a 16-core workstation baseline.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Profile names the workload that produced the numbers (an experiment
	// scale such as "smoke", or a clip profile name).
	Profile string `json:"profile,omitempty"`
	// GitCommit is the source revision, when the producer could determine
	// it (best effort; empty outside a git checkout).
	GitCommit string `json:"git_commit,omitempty"`
}

// CollectRunMeta captures the runtime environment. The caller fills
// Profile and GitCommit, which obs cannot know.
func CollectRunMeta() RunMeta {
	return RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
