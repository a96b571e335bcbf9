package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// env is one run's footprint outside the process: the repository root,
// the built tpserve binary, a private temp dir, and every child still
// alive. cleanup reaps all of it; main calls it on every exit path,
// including SIGINT/SIGTERM.
type env struct {
	root    string // repository root (holds cmd/tpserve)
	tpserve string // built binary
	tmp     string // per-run scratch: CSVs, data dirs

	mu    sync.Mutex
	procs map[*child]struct{}
}

// findRoot walks up from the working directory to the repository root,
// so the harness runs the same from the root (the benchmark command),
// from benchmark/ (go run ., go test) or from a subdirectory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tpserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: no cmd/tpserve above the working directory")
		}
		dir = parent
	}
}

// newEnv builds tpserve from the checkout's sources (a cache hit after
// the first run) and creates the run's temp dir. Everything lands under
// <root>/.bench_build, which .gitignore names.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "tpserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tpserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/tpserve: %v\n%s", err, out)
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, tpserve: bin, tmp: tmp, procs: make(map[*child]struct{})}, nil
}

// cleanup kills and reaps every live child and removes the temp dir.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*child, 0, len(e.procs))
	for s := range e.procs {
		procs = append(procs, s)
	}
	e.mu.Unlock()
	for _, s := range procs {
		s.kill()
	}
	os.RemoveAll(e.tmp)
}

// child is one tpserve process.
type child struct {
	env    *env
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been reaped
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before tpserve binds it, so start retries on the rare race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// healthPoll is the /healthz polling cadence of start and restart.
const healthPoll = 2 * time.Millisecond

// start execs tpserve with args (plus -addr on a fresh port) and waits
// for /healthz to answer ok — which, since tpserve seeds and restores
// its catalog before it listens, means the catalog is loaded. The
// returned duration is exec → healthy.
func (e *env) start(args ...string) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		s := &child{env: e, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
		s.cmd = exec.Command(e.tpserve, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
		s.cmd.Stderr = &s.stderr
		s.cmd.SysProcAttr = childAttr()
		t0 := time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, 0, err
		}
		e.mu.Lock()
		e.procs[s] = struct{}{}
		e.mu.Unlock()
		go func() {
			_ = s.cmd.Wait() // exit status is read from the outcome of waitHealthy
			close(s.done)
		}()
		if err := s.waitHealthy(60 * time.Second); err != nil {
			s.kill() // also ends the stderr copy, so the buffer is safe to read
			lastErr = fmt.Errorf("tpserve %v: %v\n%s", args, err, s.stderr.String())
			continue
		}
		return s, time.Since(t0), nil
	}
	return nil, 0, lastErr
}

var healthClient = &http.Client{Timeout: time.Second}

func (s *child) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("exited before it became healthy")
		default:
		}
		resp, err := healthClient.Get(s.base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"status":"ok"`)) {
				return nil
			}
		}
		time.Sleep(healthPoll)
	}
	return errors.New("not healthy in time")
}

// kill SIGKILLs the child (a no-op once it has exited), waits until it
// has been reaped and forgets it.
func (s *child) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	s.env.mu.Lock()
	delete(s.env.procs, s)
	s.env.mu.Unlock()
}

// terminate asks for a graceful shutdown (SIGTERM: drain, apply and
// fsync pending WAL records) and waits for the exit.
func (s *child) terminate() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("tpserve ignored SIGTERM for 30s")
	}
	s.env.mu.Lock()
	delete(s.env.procs, s)
	s.env.mu.Unlock()
	return nil
}

func (s *child) pid() int { return s.cmd.Process.Pid }
