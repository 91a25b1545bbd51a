package main

import (
	"flag"
	"fmt"
	"net/http"
	"time"
)

// The reference round trip. The host this benchmark runs on changes
// speed in phases of minutes: the same commit's latencies and CPU time
// per request all move together by 15 to 40 % (README, "Noise"). The
// one thing that moves with them is another HTTP round trip made at the
// same moment, so every run starts a reference server beside the system
// under test — this program itself, answering GET /ping with three
// bytes, frozen with the benchmark — and each client asks it, over its
// second keep-alive connection, between two requests of its script
// whenever refEvery has passed since it last did. The median of those
// round trips inside the window is rt, the unit of the gated timings.

// refEvery is the least time between a client's reference requests:
// close to 100 a second from each on the ingest workloads, as many as
// the long reads leave room for on cluster_read (about 23 a second).
const refEvery = 10 * time.Millisecond

// minRefSamples is how many reference round trips a window needs for rt
// to stand; a 1 s smoke window gives about 100.
const minRefSamples = 30

// refMain is the reference server: `benchmark refserver -addr host:port`.
func refMain(args []string) error {
	fs := flag.NewFlagSet("refserver", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address")
	fs.Parse(args)
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "ok\n") })
	return http.ListenAndServe(*addr, mux)
}

// startReference spawns the reference server from the program at self
// into f and returns the URL the clients ask.
func startReference(f *fleet, self string) (string, error) {
	hc := newHTTPClient()
	n, err := f.spawn(self, []string{"refserver"}, func(url string) bool {
		_, err := getBytes(hc, url+"/ping")
		return err == nil
	})
	if err != nil {
		return "", err
	}
	return n.url + "/ping", nil
}
