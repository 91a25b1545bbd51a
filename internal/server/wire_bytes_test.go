package server

import (
	"strconv"
	"testing"

	typereg "repro/internal/registry"
)

// wireBytesGolden is the envelope size, in bytes, of every servable
// family at its default parameters after the reference ingest below:
// full is what durability, replication and a default read ship, slim
// what ?wire=slim ships where the family has that form. Transmitted
// bytes are a budget like any other, and an exact one — the same on
// every host. A format change that moves a number is made here on
// purpose, in the same commit, with the reason in its message.
var wireBytesGolden = map[string]struct{ full, slim int }{
	"ams":               {full: 18466},
	"blockedbloom":      {full: 1198182},
	"bloom":             {full: 1198174},
	"countingbloom":     {full: 2097190},
	"countmin":          {full: 65584},
	"countsketch":       {full: 81971},
	"fm":                {full: 530},
	"gk":                {full: 2282},
	"graphsketch":       {full: 319510},
	"hll":               {full: 12307},
	"hllpp":             {full: 8212},
	"kll":               {full: 1174},
	"kmv":               {full: 8214},
	"l0sampler":         {full: 25652},
	"loglog":            {full: 4115},
	"minhash":           {full: 1042},
	"misragries":        {full: 857},
	"morris":            {full: 26},
	"mrl":               {full: 8334},
	"nelsonyu":          {full: 2516},
	"qdigest":           {full: 11787},
	"req":               {full: 2334},
	"reservoir":         {full: 914},
	"robustdistinct":    {full: 24816},
	"sfsketch":          {full: 147527, slim: 16439},
	"spacesaving":       {full: 1614},
	"sparserecovery":    {full: 6162},
	"tdigest":           {full: 890},
	"theta":             {full: 8222},
	"weightedreservoir": {full: 1715},
}

func TestWireBytesGolden(t *testing.T) {
	// 1024 numeric lines, which every input kind but an edge list accepts.
	items := make([][]byte, 1024)
	for i := range items {
		items[i] = []byte(strconv.Itoa(i * 7919 % 100000))
	}
	seen := 0
	for _, d := range typereg.All() {
		if !d.Servable() {
			continue
		}
		want, ok := wireBytesGolden[d.Name]
		if !ok {
			t.Errorf("%s: servable family with no row in wireBytesGolden", d.Name)
			continue
		}
		seen++
		entry, err := NewEntry(CreateRequest{Type: d.Name})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		// graphsketch wants edges and refuses the batch; it is measured
		// as created, which tracks its format all the same.
		_ = entry.Add(items)
		full, err := entry.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(full) != want.full {
			t.Errorf("%s: full envelope is %d bytes, golden %d", d.Name, len(full), want.full)
		}
		slim, used, err := entry.SnapshotWire(nil, true)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got := len(slim); used && got != want.slim {
			t.Errorf("%s: slim envelope is %d bytes, golden %d", d.Name, got, want.slim)
		} else if !used && want.slim != 0 {
			t.Errorf("%s: golden holds a slim size %d, and the family no longer serves one", d.Name, want.slim)
		}
		entry.Close()
	}
	if seen != len(wireBytesGolden) {
		t.Errorf("wireBytesGolden holds %d rows, %d of them servable families", len(wireBytesGolden), seen)
	}
}
