package server

import (
	"bytes"

	typereg "repro/internal/registry"
)

// SplitBatch splits an ingest body into items by the rule the ingest
// path cuts it by (registry.CutLine): one item per line, tolerant of
// CRLF and of a missing trailing newline; empty lines are skipped. The
// returned slices alias data. The serving path never splits a body — it
// hands it whole to Entry.Ingest — so this is the reference the fuzz
// targets hold the body path's item count to, and a [][]byte for the
// entry points that still take one (Entry.Add).
func SplitBatch(data []byte) [][]byte {
	return SplitBatchAppend(make([][]byte, 0, bytes.Count(data, []byte{'\n'})+1), data)
}

// SplitBatchAppend splits like SplitBatch but appends into dst: it is
// registry.AppendLines.
func SplitBatchAppend(dst [][]byte, data []byte) [][]byte {
	return typereg.AppendLines(dst, data)
}
