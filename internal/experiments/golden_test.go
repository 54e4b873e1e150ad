package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The registry golden. testdata/registry_smoke.json holds every Registry
// entry's typed rows at ScaleSmoke and BaseSeed, with every WallMs zeroed: a
// pass proves that no experiment's result moved. A change that
// moves results on purpose regenerates it, and its diff is the evidence:
//
//	make experiments
//
// which runs this test with -update-golden: it rewrites the golden and
// EXPERIMENTS.md's measured tables (the same entries at ScaleDefault, between
// the <!-- registry:<id> --> markers).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/registry_smoke.json and EXPERIMENTS.md's registry tables")

const (
	registryGoldenPath = "testdata/registry_smoke.json"
	experimentsDocPath = "../../EXPERIMENTS.md"
)

// goldenEntry is one registry entry in the golden: its id and pinned rows.
type goldenEntry struct {
	ID   string          `json:"id"`
	Rows json.RawMessage `json:"rows"`
}

// runPinned runs every registry entry at scale and BaseSeed, checks the shape of
// its table and returns the entries with their rows pinned. The entries are
// independent, so they fan across the harness pool too.
func runPinned(t *testing.T, scale Scale) ([]goldenEntry, []Result) {
	t.Helper()
	entries := make([]goldenEntry, len(Registry))
	results := make([]Result, len(Registry))
	pool().ForEach(len(Registry), func(i int) {
		e := Registry[i]
		res, err := e.Run(scale, BaseSeed)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			return
		}
		res.Rows = pinned(res.Rows)
		tab := res.Table()
		if tab.Title == "" || len(tab.Rows) == 0 {
			t.Errorf("%s: empty table %+v", e.ID, tab)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: ragged row %q under %q", e.ID, row, tab.Columns)
			}
		}
		data, err := json.Marshal(res.Rows)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		entries[i], results[i] = goldenEntry{ID: e.ID, Rows: data}, res
	})
	if t.Failed() {
		t.FailNow()
	}
	return entries, results
}

func TestRegistryGolden(t *testing.T) {
	got, _ := runPinned(t, ScaleSmoke)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		writeExperimentsDoc(t)
	}
	data, err := os.ReadFile(registryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, msg := range goldenDiffs(want, got) {
		t.Error(msg)
	}
}

// writeExperimentsDoc rewrites each entry's block of EXPERIMENTS.md with its
// table at ScaleDefault, wall-clock cells shown as "—".
func writeExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile(experimentsDocPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	_, results := runPinned(t, ScaleDefault)
	for i, e := range Registry {
		if text, err = spliceBlock(text, "registry:"+e.ID, markdownTable(results[i].Table())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(experimentsDocPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentsDocBlocks: EXPERIMENTS.md holds exactly one generated block
// per registry entry and none for an id the registry lacks.
func TestExperimentsDocBlocks(t *testing.T) {
	doc, err := os.ReadFile(experimentsDocPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, e := range Registry {
		if _, err := spliceBlock(text, "registry:"+e.ID, ""); err != nil {
			t.Error(err)
		}
	}
	if n := strings.Count(text, "\n<!-- registry:"); n != len(Registry) {
		t.Errorf("EXPERIMENTS.md opens %d registry blocks, want %d", n, len(Registry))
	}
}

// spliceBlock replaces the text between the lines <!-- name --> and
// <!-- /name --> of doc with body; each marker must appear exactly once.
func spliceBlock(doc, name, body string) (string, error) {
	open, end := "<!-- "+name+" -->\n", "<!-- /"+name+" -->\n"
	i, j := strings.Index(doc, open), strings.Index(doc, end)
	if strings.Count(doc, open) != 1 || strings.Count(doc, end) != 1 || j < i {
		return "", fmt.Errorf("EXPERIMENTS.md: want exactly one %q … %q block", strings.TrimSpace(open), strings.TrimSpace(end))
	}
	return doc[:i+len(open)] + body + doc[j:], nil
}

// markdownTable renders t as its title and a markdown table.
func markdownTable(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%s*\n\n", t.Title)
	row := func(cells []string) {
		for _, c := range cells {
			fmt.Fprintf(&b, "| %s ", strings.ReplaceAll(c, "|", `\|`))
		}
		b.WriteString("|\n")
	}
	row(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = "---"
	}
	row(rule)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// goldenDiffs names every registry id whose rows differ from the golden, with
// the first row (array element or object field) that differs.
func goldenDiffs(want, got []goldenEntry) []string {
	byID := map[string]json.RawMessage{}
	for _, w := range want {
		byID[w.ID] = w.Rows
	}
	var msgs []string
	for _, g := range got {
		w, ok := byID[g.ID]
		delete(byID, g.ID)
		switch {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("%s: not in the golden", g.ID))
		case !jsonEqual(w, g.Rows):
			msgs = append(msgs, fmt.Sprintf("%s: %s", g.ID, firstDiff(w, g.Rows)))
		}
	}
	for _, w := range want {
		if _, stale := byID[w.ID]; stale {
			msgs = append(msgs, fmt.Sprintf("%s: in the golden but not in the registry", w.ID))
		}
	}
	return msgs
}

// firstDiff describes the first row where two JSON results differ: the first
// differing element of an array, or the first differing field (by name) of
// an object.
func firstDiff(want, got json.RawMessage) string {
	wl, wRows := jsonRows(want)
	gl, gRows := jsonRows(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		switch {
		case i >= len(wl) || i >= len(gl) || wl[i] != gl[i]:
			return fmt.Sprintf("the rows differ in number or name (golden %d, run %d)", len(wl), len(gl))
		case !jsonEqual(wRows[i], gRows[i]):
			return fmt.Sprintf("first differing row %s:\n  golden %s\n  run    %s", wl[i], compactJSON(wRows[i]), compactJSON(gRows[i]))
		}
	}
	return fmt.Sprintf("golden %s, run %s", compactJSON(want), compactJSON(got))
}

// jsonRows splits a JSON array into its elements and an object into its
// fields in name order, each with a label; anything else is one row.
func jsonRows(v json.RawMessage) (labels []string, rows []json.RawMessage) {
	var arr []json.RawMessage
	if json.Unmarshal(v, &arr) == nil {
		for i := range arr {
			labels = append(labels, fmt.Sprint(i))
		}
		return labels, arr
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(v, &obj) == nil {
		for k := range obj {
			labels = append(labels, k)
		}
		sort.Strings(labels)
		for _, k := range labels {
			rows = append(rows, obj[k])
		}
		return labels, rows
	}
	return []string{"value"}, []json.RawMessage{v}
}

func compactJSON(v json.RawMessage) string {
	var b bytes.Buffer
	if json.Compact(&b, v) != nil {
		return string(v)
	}
	return b.String()
}

func jsonEqual(a, b json.RawMessage) bool { return compactJSON(a) == compactJSON(b) }

var wallMsType = reflect.TypeOf(WallMs(0))

// pinned returns a deep copy of v in which every WallMs — at any depth,
// through struct fields, pointers, slices, arrays, maps and interfaces — is
// zero, and every other value is as it was.
func pinned(v any) any {
	if v == nil {
		return nil
	}
	return pinValue(reflect.ValueOf(v)).Interface()
}

func pinValue(v reflect.Value) reflect.Value {
	if v.Type() == wallMsType {
		return reflect.Zero(wallMsType)
	}
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		out.Set(reflect.New(v.Type().Elem()))
		out.Elem().Set(pinValue(v.Elem()))
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out.Set(pinValue(v.Elem()))
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(pinValue(v.Index(i)))
		}
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(it.Key(), pinValue(it.Value()))
		}
	case reflect.Struct:
		out.Set(v)
		for i := 0; i < v.NumField(); i++ {
			if out.Field(i).CanSet() {
				out.Field(i).Set(pinValue(v.Field(i)))
			}
		}
	default:
		out.Set(v)
	}
	return out
}

// TestPinnedZeroesOnlyWallMs: pinned zeroes a WallMs wherever it sits and
// leaves every other field, the input included, as it was.
func TestPinnedZeroesOnlyWallMs(t *testing.T) {
	type inner struct {
		T WallMs
		N int
	}
	type probe struct {
		Name  string
		Wall  WallMs
		Plain float64
		Ptr   *inner
		List  []inner
		Arr   [2]WallMs
		ByKey map[string]WallMs
		Any   any
		Nil   *inner
	}
	in := probe{
		Name: "x", Wall: 1.5, Plain: 2.5,
		Ptr:   &inner{T: 3, N: 4},
		List:  []inner{{T: 5, N: 6}, {T: 7, N: 8}},
		Arr:   [2]WallMs{9, 10},
		ByKey: map[string]WallMs{"k": 11},
		Any:   []WallMs{12},
	}
	want := probe{
		Name: "x", Plain: 2.5,
		Ptr:   &inner{N: 4},
		List:  []inner{{N: 6}, {N: 8}},
		ByKey: map[string]WallMs{"k": 0},
		Any:   []WallMs{0},
	}
	orig := fmt.Sprintf("%+v %+v %+v", in, *in.Ptr, in.Any)
	got := pinned(in).(probe)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pinned = %+v, want %+v", got, want)
	}
	if now := fmt.Sprintf("%+v %+v %+v", in, *in.Ptr, in.Any); now != orig {
		t.Errorf("pinned changed its input: %s, was %s", now, orig)
	}
	if rows := pinned([]Fig9Row{{Dataset: "d", MAP: 0.5, TimeMs: 3}}); !reflect.DeepEqual(rows, []Fig9Row{{Dataset: "d", MAP: 0.5}}) {
		t.Errorf("pinned Fig 9 rows = %+v", rows)
	}
}

// TestGoldenDiffNamesIDAndRow: a golden failure names the entry and its first
// differing row, for array and object results alike.
func TestGoldenDiffNamesIDAndRow(t *testing.T) {
	want := []goldenEntry{
		{ID: "f16", Rows: json.RawMessage(`[{"map":0.5},{"map":0.6},{"map":0.7}]`)},
		{ID: "f6", Rows: json.RawMessage(`{"Accuracy":0.9,"Threshold":0.15}`)},
		{ID: "t1", Rows: json.RawMessage(`[1]`)},
	}
	got := []goldenEntry{
		{ID: "f16", Rows: json.RawMessage(`[{"map":0.5},{"map":0.61},{"map":0.71}]`)},
		{ID: "f6", Rows: json.RawMessage(`{"Accuracy":0.8,"Threshold":0.15}`)},
		{ID: "t1", Rows: json.RawMessage(` [ 1 ] `)},
	}
	msgs := goldenDiffs(want, got)
	if len(msgs) != 2 {
		t.Fatalf("diffs = %q, want two", msgs)
	}
	for i, want := range []string{`f16: first differing row 1:`, `f6: first differing row Accuracy:`} {
		if !strings.HasPrefix(msgs[i], want) || !strings.Contains(msgs[i], "golden") {
			t.Errorf("diff %d = %q, want it to start %q", i, msgs[i], want)
		}
	}
	if msgs := goldenDiffs(want[:1], got[1:2]); len(msgs) != 2 ||
		msgs[0] != "f6: not in the golden" || msgs[1] != "f16: in the golden but not in the registry" {
		t.Errorf("membership diffs = %q", msgs)
	}
}
