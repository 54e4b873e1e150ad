package edge

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden.txt from the current encoders")

// goldenMessages is one framed message of every kind the protocol has, with
// every field set to something a wrong offset or width would show.
var goldenMessages = []struct {
	name  string
	write func(w io.Writer) error
}{
	{"hello", func(w io.Writer) error {
		return WriteHello(w, Hello{Profile: "nuScenes", Seed: -42, Duration: 2.5, Resume: true, FirstFrame: 17})
	}},
	{"frame", func(w io.Writer) error {
		return WriteFrame(w, &FrameMsg{
			Index: 9, Bitstream: []byte{0x00, 0x01, 0xFE, 0xFF, 'D', 'v', 0x80},
			SentNanos: 1234567890123, TraceID: 0xdeadbeefcafe, SpanID: 77,
		})
	}},
	{"result", func(w io.Writer) error {
		return WriteResult(w, &ResultMsg{
			Index: 9, SentNanos: 1234567890123, ServerMs: 1.375, TraceID: 0xdeadbeefcafe,
			Detections: []WireDetection{
				{Class: 1, MinX: 10, MinY: 20, MaxX: 30, MaxY: 40, Score: 0.92},
				{Class: 2, MinX: -1, MinY: 0, MaxX: 5, MaxY: 6, Score: 0.125},
			},
		})
	}},
	{"nack", func(w io.Writer) error {
		return WriteResult(w, &ResultMsg{Index: -1, Err: "corrupt message: edge: message checksum mismatch", NeedKeyframe: true})
	}},
	{"redirect", func(w io.Writer) error {
		return writeRedirect(w, Redirect{Addr: "127.0.0.1:7061", Reason: "drain"})
	}},
}

// TestWireGolden holds the bytes on the wire to testdata/wire_golden.txt,
// which was generated at PR 18's parent commit (-update-golden there): the
// encode-into-the-envelope writers must reproduce the two-copy writers byte
// for byte. Regenerate only for an intentional format change.
func TestWireGolden(t *testing.T) {
	const path = "testdata/wire_golden.txt"
	var got strings.Builder
	for _, m := range goldenMessages {
		var buf bytes.Buffer
		if err := m.write(&buf); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", m.name, hex.EncodeToString(buf.Bytes()))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("wire bytes differ from the parent commit's:\n got:\n%s want:\n%s", got.String(), want)
	}
}
