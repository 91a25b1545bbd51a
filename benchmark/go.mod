// The benchmark is its own module so that the repository's
// `go build ./... && go test ./...` never compiles it: a refactor of
// internal/ cannot break tier-1 through the benchmark, and the
// benchmark's end-to-end path (package main here) imports the standard
// library only. Only ./layertrace reaches into repro/internal.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
