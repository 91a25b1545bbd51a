package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// sketchcli runs the command as main does, on stdin, and returns its
// exit status and what it wrote to stdout and stderr.
func sketchcli(t *testing.T, stdin []byte, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	paths := [3]string{filepath.Join(dir, "in"), filepath.Join(dir, "out"), filepath.Join(dir, "err")}
	if err := os.WriteFile(paths[0], stdin, 0o644); err != nil {
		t.Fatal(err)
	}
	var files [3]*os.File
	for i, p := range paths {
		f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	saved := [3]*os.File{os.Stdin, os.Stdout, os.Stderr}
	os.Stdin, os.Stdout, os.Stderr = files[0], files[1], files[2]
	func() {
		defer func() { os.Stdin, os.Stdout, os.Stderr = saved[0], saved[1], saved[2] }()
		code = run(args)
	}()
	for _, f := range files {
		f.Close()
	}
	out, _ := os.ReadFile(paths[1])
	errOut, _ := os.ReadFile(paths[2])
	return code, string(out), string(errOut)
}

// must runs the command and fails the test unless it exits 0.
func must(t *testing.T, stdin []byte, args ...string) string {
	t.Helper()
	code, out, errOut := sketchcli(t, stdin, args...)
	if code != 0 {
		t.Fatalf("sketchcli %s: exit %d: %s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// family is one family the CLI is held to sketchd on: a shape, the
// queries compared, and a stream of its line format.
type family struct {
	name    string
	shape   map[string]float64
	queries []string
	line    func(rng *rand.Rand, i int) string
}

func key(rng *rand.Rand) string { return "k" + strconv.Itoa(int(rng.ExpFloat64()*8)) }

var families = []family{
	{"hll", map[string]float64{"p": 10}, nil, func(rng *rand.Rand, i int) string { return "u-" + strconv.Itoa(rng.Intn(900)) }},
	{"spacesaving", map[string]float64{"k": 16}, []string{"item=k3", "k=5"}, func(rng *rand.Rand, i int) string {
		if i%5 == 0 {
			return key(rng) + "\t" + strconv.Itoa(rng.Intn(9))
		}
		return key(rng)
	}},
	{"kll", map[string]float64{"k": 32}, []string{"q=0.5", "q=0.99"}, func(rng *rand.Rand, i int) string {
		return strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64)
	}},
	{"bloom", map[string]float64{"m": 4096, "k": 3}, []string{"item=k3", "item=absent"}, func(rng *rand.Rand, i int) string { return key(rng) }},
	{"ams", map[string]float64{"groups": 3, "per_group": 16}, nil, func(rng *rand.Rand, i int) string {
		return key(rng) + "\t" + strconv.Itoa(rng.Intn(7)-3)
	}},
	{"countmin", map[string]float64{"width": 64, "depth": 4}, []string{"item=k3"}, func(rng *rand.Rand, i int) string {
		return key(rng) + "\t" + strconv.Itoa(1+rng.Intn(5))
	}},
}

// stream renders n lines of f's format as an /add body, with the lines
// a body may hold besides: blank ones, a CR before the newline, a
// padded item (not trimmed: sketchd does not trim), one longer than a
// chunk, and no newline after the last.
func (f family) stream(n int) []byte {
	rng := rand.New(rand.NewSource(int64(len(f.name))))
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		line := f.line(rng, i)
		switch {
		case i%97 == 0:
			b.WriteString("\n")
		case i%89 == 0:
			line += "\r"
		case i%83 == 0 && f.name != "kll":
			line = " " + line
		case i == n/2 && f.name != "kll":
			line = strings.Repeat("x", 300)
		}
		b.WriteString(line)
		if i < n-1 {
			b.WriteString("\n")
		}
	}
	return b.Bytes()
}

// grouped prefixes each line of a stream with one of four groups, and
// adds a group whose one item is empty: it is created and holds nothing.
// Not for kll: an empty one has no min or max, and an infinity is not
// JSON, so neither sketchd nor sketchcli can write its summary.
func (f family) grouped(stream []byte) []byte {
	var b bytes.Buffer
	for i, line := range strings.Split(string(stream), "\n") {
		if line != "" {
			fmt.Fprintf(&b, "g%d\t%s\n", i%4, line)
		}
	}
	if f.name != "kll" {
		b.WriteString("empty\t\n")
	}
	return b.Bytes()
}

func (f family) flags() []string {
	var args []string
	for name, v := range f.shape {
		args = append(args, "-"+name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return args
}

func jsonEqual(t *testing.T, what, line string, want map[string]any) {
	t.Helper()
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("%s: %q is not a JSON answer: %v", what, line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: sketchcli printed %v, sketchd answers %v", what, got, want)
	}
}

func mustQuery(t *testing.T, cl *client.Client, name, query string) map[string]any {
	t.Helper()
	vals, _ := url.ParseQuery(query)
	doc, err := cl.Query(name, vals)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func serve(t *testing.T) *client.Client {
	t.Helper()
	hs, base, err := server.Listen("127.0.0.1:0", server.New().Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return client.New(base)
}

// TestSketchIsSketchd holds `sketch` to a sketchd fed the same bytes as
// one /add body: the answer to every query, the -o envelope against
// /snapshot, and -group's answers against the sketches a
// /v1/ingest/groupby of the same lines creates. Stdin is cut into
// chunks far smaller than the stream, so that most lines of it cross a
// chunk boundary or end one.
func TestSketchIsSketchd(t *testing.T) {
	defer func(n int) { chunkBytes = n }(chunkBytes)
	chunkBytes = 61
	cl := serve(t)
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			stream := f.stream(2000)
			if err := cl.Create(f.name, server.CreateRequest{Type: f.name, Params: f.shape}); err != nil {
				t.Fatal(err)
			}
			if err := cl.AddBatch(f.name, stream); err != nil {
				t.Fatal(err)
			}
			args := slices.Clip(append([]string{"sketch", f.name}, f.flags()...))
			queries := append([]string{""}, f.queries...) // "": the summary, as no -query prints it
			for _, q := range queries {
				jsonEqual(t, "query "+q, strings.TrimSuffix(must(t, stream, append(args, "-query", q)...), "\n"), mustQuery(t, cl, f.name, q))
			}
			jsonEqual(t, "no -query", strings.TrimSuffix(must(t, stream, args...), "\n"), mustQuery(t, cl, f.name, ""))

			env := filepath.Join(t.TempDir(), "env")
			if out := must(t, stream, append(args, "-o", env)...); out != "" {
				t.Errorf("-o printed %q", out)
			}
			got, _ := os.ReadFile(env)
			want, err := cl.Snapshot(f.name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-o wrote %d bytes that are not /snapshot's %d", len(got), len(want))
			}

			byGroup := f.grouped(stream)
			gq := url.Values{"type": {f.name}, "prefix": {"grp-" + f.name + "-"}}
			for name, v := range f.shape {
				gq.Set("param."+name, strconv.FormatFloat(v, 'g', -1, 64))
			}
			if _, err := cl.GroupBy(gq, byGroup); err != nil {
				t.Fatal(err)
			}
			gargs := append(args, "-group")
			for _, q := range queries {
				gargs = append(gargs, "-query", q)
			}
			lines := strings.Split(strings.TrimSuffix(must(t, byGroup, gargs...), "\n"), "\n")
			groups := []string{"empty", "g0", "g1", "g2", "g3"}
			if f.name == "kll" {
				groups = groups[1:]
			}
			if want := len(queries) * (len(groups) + 1); len(lines) != want {
				t.Fatalf("-group printed %d lines, want %d: %q", len(lines), want, lines)
			}
			for i, line := range lines {
				g, q := "", queries[i%len(queries)]
				if i < len(groups)*len(queries) {
					g = groups[i/len(queries)]
				}
				label, doc, labelled := strings.Cut(line, "\t")
				if g == "" {
					label, doc = "", line
				}
				if label != g || labelled != (g != "") {
					t.Fatalf("-group line %d is %q, want it labelled %q", i, line, g)
				}
				name := gq.Get("prefix") + g
				switch {
				case g == "" && !union[f.name]:
					continue // the union of a bounded merge answers within the family's bound
				case g == "": // an exact union is the sketch of every line
					name = f.name
				}
				jsonEqual(t, fmt.Sprintf("-group line %d (%q, query %q)", i, g, q), doc, mustQuery(t, cl, name, q))
			}
		})
	}
}

// union names the families whose merge is the union, byte for byte
// (registry law M4).
var union = map[string]bool{"hll": true, "bloom": true, "countmin": true, "ams": true}

// TestSketchEveryFamily: every family sketchd serves builds from stdin
// with its defaults, to the envelope a create with no parameters holds.
func TestSketchEveryFamily(t *testing.T) {
	cl := serve(t)
	dir := t.TempDir()
	served := 0
	for _, d := range registry.All() {
		if !d.Servable() {
			continue
		}
		served++
		env := filepath.Join(dir, d.Name)
		must(t, nil, "sketch", d.Name, "-o", env)
		if err := cl.Create(d.Name, server.CreateRequest{Type: d.Name}); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(env)
		want, err := cl.Snapshot(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: -o wrote %d bytes that are not a fresh sketch's /snapshot of %d", d.Name, len(got), len(want))
		}
	}
	if served != 30 {
		t.Errorf("%d servable families, want 30", served)
	}
}

// TestMergeAndInspect is the pattern of building a sketch where the data
// is, shipping its envelope and merging it: a stream cut in two and
// built half by half merges to the bytes of the whole stream's sketch,
// for the families whose merge is the union, and inspect answers for
// that sketch as sketch did.
func TestMergeAndInspect(t *testing.T) {
	for _, f := range families {
		if !union[f.name] || f.name == "ams" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			stream := f.stream(3000)
			cut := bytes.IndexByte(stream[len(stream)/2:], '\n') + len(stream)/2 + 1
			dir := t.TempDir()
			file := func(name string) string { return filepath.Join(dir, name) }
			args := slices.Clip(append([]string{"sketch", f.name}, f.flags()...))
			must(t, stream[:cut], append(args, "-o", file("a"))...)
			must(t, stream[cut:], append(args, "-o", file("b"))...)
			must(t, stream, append(args, "-o", file("whole"))...)
			must(t, nil, "merge", "-o", file("merged"), file("a"), file("b"))
			merged, _ := os.ReadFile(file("merged"))
			whole, _ := os.ReadFile(file("whole"))
			if !bytes.Equal(merged, whole) {
				t.Errorf("merge of the halves: %d bytes that are not the whole stream's %d", len(merged), len(whole))
			}
			answer := must(t, stream, args...)
			inspected := must(t, nil, "inspect", file("whole"))
			if !strings.HasPrefix(inspected, "type:     "+f.name+" ") || !strings.HasSuffix(inspected, "\n"+answer) {
				t.Errorf("inspect printed %q, not ending in sketch's answer %q", inspected, answer)
			}
		})
	}
}

// TestRefusals: a parameter out of its schema, an unknown one, a bad
// line, and a redteam size that once panicked or wrapped through uint8
// are each an error and exit status 1, with nothing on stdout.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		stdin string
		args  []string
		says  string
	}{
		{"", []string{"sketch", "hll", "-p", "3"}, "p=3 out of [4,18]"},
		{"", []string{"sketch", "spacesaving", "-k", "0"}, "k=0 out of"},
		{"", []string{"sketch", "hll", "-width", "5"}, "not defined: -width"},
		{"", []string{"sketch", "hll", "-p", "x"}, `invalid value "x"`},
		{"", []string{"sketch", "nosuch"}, `"nosuch" is not a family`},
		{"", []string{"sketch", "hll", "-group", "-o", "x"}, "takes neither"},
		{"1\n2\n3\nfour\n5\n", []string{"sketch", "kll"}, `lines 1-5: registry: bad input line: value "four"`},
		{"a\tx\nb\n", []string{"sketch", "hll", "-group"}, "stdin line 2: missing group<TAB>item"},
		{"a\tk\t1\nb\tk\tmany\n", []string{"sketch", "countmin", "-group"}, `lines 1-2: group "b": registry: bad input line: weight "many"`},
		{"", []string{"redteam", "-p", "3"}, "p=3 out of [4,18]"},
		{"", []string{"redteam", "-p", "260"}, "p=260 out of [4,18]"},
		{"", []string{"redteam", "-mode", "kmv", "-k", "2"}, "k=2 out of [3,"},
	} {
		code, out, errOut := sketchcli(t, []byte(c.stdin), c.args...)
		if code != 1 || out != "" || !strings.Contains(errOut, c.says) {
			t.Errorf("sketchcli %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, an error saying %q",
				strings.Join(c.args, " "), code, out, errOut, c.says)
		}
	}
}
