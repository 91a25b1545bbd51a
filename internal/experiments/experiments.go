// Package experiments implements the reproduction's evaluation: one
// runner per experiment in DESIGN.md §2 (E1…E24 plus ablations), each
// producing the table(s) recorded in EXPERIMENTS.md. The paper being a
// survey, each experiment validates one of its inline quantitative
// claims rather than copying a numbered figure; the mapping from claim
// to experiment is the table in DESIGN.md.
//
// Every experiment is seeded and sized to run in seconds on a laptop.
// Each states its exact pass bars as Bars; a timing is only ever a note.
// The tier-1 sweep fails on an unmet bar and holds every experiment that
// prints no timing to its testdata/<id>.golden byte for byte.
// cmd/sketchbench runs them from the command line; bench_test.go wraps
// each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Claim  string // the paper claim being validated
	Tables []*core.Table
	Bars   []Bar    // the exact pass bars; the tier-1 sweep fails on an unmet one
	Notes  []string // informational, timing statements included; no test reads them
}

// Bar is one exact acceptance predicate an experiment evaluates over its
// own run: a count, an identity, a bound on an error. A clock reading is
// never a Bar, since it depends on the host.
type Bar struct {
	Claim string
	Met   bool
}

// bar states the Bar whose claim is fmt.Sprintf(format, args...).
func bar(met bool, format string, args ...any) Bar {
	return Bar{Claim: fmt.Sprintf(format, args...), Met: met}
}

// Unmet returns the claims of r's bars that are not met.
func (r *Result) Unmet() []string {
	var out []string
	for _, b := range r.Bars {
		if !b.Met {
			out = append(out, b.Claim)
		}
	}
	return out
}

// String renders r as sketchbench prints it and as testdata/<id>.golden
// pins it: the header, every table, every bar, then the notes.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s\npaper claim: %s\n\n", r.ID, r.Title, r.Claim)
	for _, tbl := range r.Tables {
		fmt.Fprintln(&b, tbl.String())
	}
	for _, bar := range r.Bars {
		fmt.Fprintf(&b, "acceptance: %s — %s\n", bar.Claim, metStr(bar.Met))
	}
	for _, note := range r.Notes {
		fmt.Fprintln(&b, "note:", note)
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// runner produces a result; registered in the table below.
type runner struct {
	id    string
	title string
	run   func() *Result
}

var registry []runner

func register(id, title string, run func() *Result) {
	registry = append(registry, runner{id: id, title: title, run: run})
}

// idRank orders "E1" < "E4" < "E4a" < "E4b" < "E10" numerically with
// ablation suffixes after their base experiment.
func idRank(id string) (int, string) {
	num := 0
	i := 1 // skip the leading 'E'
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		num = num*10 + int(id[i]-'0')
		i++
	}
	return num, id[i:]
}

func sortRegistry() {
	sort.Slice(registry, func(i, j int) bool {
		ni, si := idRank(registry[i].id)
		nj, sj := idRank(registry[j].id)
		if ni != nj {
			return ni < nj
		}
		return si < sj
	})
}

// IDs returns all experiment ids in canonical order.
func IDs() []string {
	sortRegistry()
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Run executes one experiment by id.
func Run(id string) (*Result, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Titles returns id → registered title for listing.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, r := range registry {
		out[r.id] = r.title
	}
	return out
}

func metStr(ok bool) string {
	if ok {
		return "met"
	}
	return "NOT met"
}

// sortedKeys is a small helper for deterministic table rows.
func sortedKeys[K ~int | ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
