package netsim

import (
	"strings"
	"testing"
)

func TestParseTraceCSV(t *testing.T) {
	in := `# a comment

0, 2.0
1.5, 0.5
3;4.0
5	1.0
`
	tr, err := ParseTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.BandwidthAt(0.5) != Mbps(2) {
		t.Errorf("t=0.5: %v", tr.BandwidthAt(0.5))
	}
	if tr.BandwidthAt(2) != Mbps(0.5) {
		t.Errorf("t=2: %v", tr.BandwidthAt(2))
	}
	if tr.BandwidthAt(4) != Mbps(4) {
		t.Errorf("t=4: %v", tr.BandwidthAt(4))
	}
	if tr.BandwidthAt(100) != Mbps(1) {
		t.Errorf("t=100: %v", tr.BandwidthAt(100))
	}
}

func TestParseTraceCSVHoldsFirstRate(t *testing.T) {
	tr, err := ParseTraceCSV(strings.NewReader("2,3.5\n4,1.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.BandwidthAt(0.1) != Mbps(3.5) {
		t.Errorf("pre-start rate = %v, want first rate held", tr.BandwidthAt(0.1))
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := []string{
		"",             // empty
		"0,1,2\n",      // wrong field count
		"x,1\n",        // bad time
		"0,y\n",        // bad rate
		"-1,1\n",       // negative time
		"0,-2\n",       // negative rate
		"0,1\n0,2\n",   // non-ascending
		"1,1\n0.5,2\n", // descending
	}
	for i, c := range cases {
		if _, err := ParseTraceCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}
