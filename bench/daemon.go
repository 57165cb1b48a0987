package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/obs"
)

// target is the daemon under load: the shipped troutd binary as a child
// process, or (for the quick pass that go test runs) the same service
// behind an in-process listener.
type target interface {
	addr() string
	pid() int // whose /proc entries give CPU time and peak memory
	stop() error
}

// buildDaemon compiles cmd/troutd from the checkout the benchmark runs in
// and returns the binary's path and how long the build took.
func buildDaemon(buildDir string) (string, float64, error) {
	bin := filepath.Join(buildDir, "bin", "troutd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/troutd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/troutd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

type childDaemon struct {
	cmd  *exec.Cmd
	host string
}

// startChild boots troutd with its default flags on a free loopback port.
// Its access log goes to the null device: at 20k requests a second a log
// file would add a hundred megabytes of disk traffic to every run.
func startChild(bin, bundle, walDir string) (target, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	host := l.Addr().String()
	_ = l.Close() // the port is free again; the daemon binds it next
	args := []string{"-bundle", bundle, "-addr", host}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive a benchmark that dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &childDaemon{cmd: cmd, host: host}
	if err := waitReady(host); err != nil {
		_ = d.stop()
		return nil, fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	return d, nil
}

func (d *childDaemon) addr() string { return d.host }
func (d *childDaemon) pid() int     { return d.cmd.Process.Pid }

// stop asks the daemon to drain and waits until the process has ended.
func (d *childDaemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("troutd did not exit on SIGTERM; killed")
	}
}

func waitReady(host string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + host + "/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("not ready on %s within 15s", host)
}

// newService wires a Service the way cmd/troutd does with its default
// flags: one tracer shared with the store, JSON access log at info level,
// float32 inference, default admission, timeouts and limits.
func newService(bundlePath, walDir string) (*trout.Service, error) {
	b, err := trout.LoadBundleFile(bundlePath)
	if err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		return nil, err
	}
	tcfg := obs.TracerConfig{SampleRate: 0.01, SlowThreshold: 250 * time.Millisecond, FlightSlots: 32}
	tracer, err := obs.NewTracer(tcfg)
	if err != nil {
		return nil, err
	}
	store, err := livestate.OpenStore(livestate.StoreOptions{Dir: walDir, Logf: obs.Logf(logger), Tracer: tracer})
	if err != nil {
		return nil, err
	}
	return trout.NewServiceWith(b, nil, trout.ServiceConfig{
		Live: store, Logger: logger, FastInference: true, Tracer: tracer, Tracing: tcfg,
	})
}

type localDaemon struct{ srv *httptest.Server }

func startLocal(bundle, walDir string) (target, error) {
	svc, err := newService(bundle, walDir)
	if err != nil {
		return nil, err
	}
	return &localDaemon{srv: httptest.NewServer(svc.Handler())}, nil
}

func (d *localDaemon) addr() string { return d.srv.Listener.Addr().String() }
func (d *localDaemon) pid() int     { return os.Getpid() }
func (d *localDaemon) stop() error  { d.srv.Close(); return nil }

// cpuSeconds is the user plus system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in ticks of 1/100 s).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; fields count from after it.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return float64(ut+st) / 100, nil
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads the daemon's /metrics into series → value, keyed as the
// exposition prints them (name, or name{labels}).
func scrape(host string) (map[string]float64, error) {
	resp, err := http.Get("http://" + host + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// sumPrefix adds every series whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
