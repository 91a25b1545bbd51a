package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one sketchd child process.
type node struct {
	cmd    *exec.Cmd
	args   []string // flags without -addr, kept so a restart repeats them
	url    string
	log    *bytes.Buffer // stderr; read only after exited is closed
	exited chan struct{}
}

// fleet owns every child the benchmark starts. stop kills and waits for
// all of them, and every path that starts one defers it.
type fleet struct {
	bin   string // sketchd binary
	nodes []*node
}

// freePort binds port 0 on loopback, notes the port and releases it.
// Another process can take the port before the child binds it; start
// retries on that.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// start launches sketchd with args on a free loopback port and waits
// until ready(url) holds.
func (f *fleet) start(args []string, ready func(url string) bool) (*node, error) {
	return f.spawn(f.bin, args, ready)
}

// spawn launches bin, which takes -addr like sketchd, the same way.
func (f *fleet) spawn(bin string, args []string, ready func(url string) bool) (*node, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		n := &node{args: args, url: "http://" + addr, log: new(bytes.Buffer)}
		n.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
		n.cmd.Stderr = n.log
		// The children die with the harness even if it is killed outright.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		f.nodes = append(f.nodes, n)
		n.exited = make(chan struct{})
		go func() { n.cmd.Wait(); close(n.exited) }()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if ready(n.url) {
				return n, nil
			}
			select {
			case <-n.exited: // most likely lost the port: try another
				deadline = time.Time{}
			case <-time.After(time.Millisecond):
			}
		}
		f.kill(n)
		lastErr = fmt.Errorf("%s %v not ready: %s", filepath.Base(bin), args, lastLines(n.log.String(), 3))
	}
	return nil, lastErr
}

// kill sends SIGKILL to n and waits until it has ended.
func (f *fleet) kill(n *node) {
	n.cmd.Process.Kill()
	<-n.exited
	for i, m := range f.nodes {
		if m == n {
			f.nodes = append(f.nodes[:i], f.nodes[i+1:]...)
			break
		}
	}
}

func (f *fleet) stop() {
	for len(f.nodes) > 0 {
		f.kill(f.nodes[len(f.nodes)-1])
	}
}

func (f *fleet) pids() []int {
	pids := make([]int, len(f.nodes))
	for i, n := range f.nodes {
		pids[i] = n.cmd.Process.Pid
	}
	return pids
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// statusReady reports whether GET url/v1/status answers 200 and, when
// sketches >= 0, names exactly that many sketches.
func statusReady(hc *http.Client, sketches int) func(url string) bool {
	return func(url string) bool {
		var st struct {
			Sketches int `json:"sketches"`
		}
		if err := getJSON(hc, url+"/v1/status", &st); err != nil {
			return false
		}
		return sketches < 0 || st.Sketches == sketches
	}
}

// procSample is what /proc says about the children and the host at one
// instant. Differences between two samples bracket a measured window.
type procSample struct {
	cpuTicks   int64 // Σ utime+stime of the children
	involCtx   int64 // Σ involuntary context switches over their threads
	hostTicks  int64 // every field of the "cpu" line of /proc/stat
	stealTicks int64
	rssKB      int64 // Σ VmHWM of the children
}

func sampleProcs(pids []int) (procSample, error) {
	var s procSample
	for _, pid := range pids {
		dir := "/proc/" + strconv.Itoa(pid)
		stat, err := os.ReadFile(dir + "/stat")
		if err != nil {
			return s, err
		}
		// The command name is in parentheses and may hold spaces;
		// utime and stime are fields 14 and 15, i.e. 12 and 13 after it.
		rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(rest) < 13 {
			return s, fmt.Errorf("%s/stat: short line", dir)
		}
		ut, _ := strconv.ParseInt(rest[11], 10, 64)
		st, _ := strconv.ParseInt(rest[12], 10, 64)
		s.cpuTicks += ut + st
		hwm, err := statusField(dir+"/status", "VmHWM:")
		if err != nil {
			return s, err
		}
		s.rssKB += hwm
		tasks, _ := filepath.Glob(dir + "/task/*/status")
		for _, t := range tasks {
			if v, err := statusField(t, "nonvoluntary_ctxt_switches:"); err == nil {
				s.involCtx += v // a thread may exit between Glob and read
			}
		}
	}
	host, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, err
	}
	line, _, _ := strings.Cut(string(host), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			s.hostTicks += v
		}
		if i == 7 {
			s.stealTicks = v
		}
	}
	return s, nil
}

func statusField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New(path + ": no " + key)
}

// clockTick is USER_HZ, the unit of the /proc tick counters. It is 100
// on every Linux port Go supports.
const clockTick = 100
