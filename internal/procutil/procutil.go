// Package procutil manages real server subprocesses for multi-process
// harnesses: spawn a salsrv-shaped binary, wait for its address files,
// watch /readyz through the recovering window, SIGKILL or drain it. The
// same helpers back salchaos's -proc/-fleet chaos modes and ci.sh's
// scale-out smoke, so every harness agrees on what "up", "ready", and
// "cleanly drained" mean.
package procutil

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// Spec describes one subprocess to start. The binary must follow the
// salsrv address-file contract: write its data-plane address to AddrFile
// and its ops HTTP address to OpsFile once the listeners are bound, serve
// /readyz on the ops address (503 "recovering" before 200), and remove
// both files on clean exit.
type Spec struct {
	Bin  string   // binary path
	Args []string // full argument list (including the addr-file flags)

	AddrFile string // data-plane address file the process will write
	OpsFile  string // ops HTTP address file the process will write
}

// readyTimeout bounds the wait for /readyz to turn 200.
const readyTimeout = 30 * time.Second

// Proc is one live subprocess started from a Spec.
type Proc struct {
	Cmd      *exec.Cmd
	AddrFile string // data-plane address file path
	OpsFile  string // ops address file path
	Addr     string // resolved data-plane address
	OpsAddr  string // resolved ops HTTP address

	// SawRecovering records whether /readyz was observed serving
	// 503 "recovering" before it turned ready. Recovery can outrun the
	// poll, so false is informational, not a failure.
	SawRecovering bool
}

// Start spawns the process and waits until it is ready: ops address file
// written, /readyz answering 200, data address file written. Stale address
// files from a previous (possibly SIGKILLed) incarnation are removed first
// so the waits only ever observe the new process. On any startup failure
// the process is killed and reaped before the error returns.
func Start(spec Spec) (*Proc, error) {
	p := &Proc{AddrFile: spec.AddrFile, OpsFile: spec.OpsFile}
	os.Remove(spec.AddrFile)
	os.Remove(spec.OpsFile)

	p.Cmd = exec.Command(spec.Bin, spec.Args...)
	// The process's output goes to ours, unlabelled: the harnesses that
	// spawn it report its log lines alongside their own.
	p.Cmd.Stdout = os.Stderr
	p.Cmd.Stderr = os.Stderr
	if err := p.Cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", spec.Bin, err)
	}

	fail := func(err error) (*Proc, error) {
		p.Cmd.Process.Kill()
		p.Cmd.Wait()
		return nil, err
	}
	// The ops listener comes up before recovery, so its address file is the
	// earliest hook; poll /readyz from there to catch the recovering window.
	opsAddr, err := WaitAddrFile(spec.OpsFile, 10*time.Second)
	if err != nil {
		return fail(fmt.Errorf("ops addr: %w", err))
	}
	p.OpsAddr = opsAddr
	deadline := time.Now().Add(readyTimeout)
	for {
		code, body := HTTPGet("http://" + p.OpsAddr + "/readyz")
		if code == http.StatusServiceUnavailable && strings.HasPrefix(strings.TrimSpace(body), "recovering") {
			p.SawRecovering = true
		}
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("server never became ready (last /readyz: %d %q)", code, strings.TrimSpace(body)))
		}
		time.Sleep(2 * time.Millisecond)
	}
	addr, err := WaitAddrFile(spec.AddrFile, 10*time.Second)
	if err != nil {
		return fail(fmt.Errorf("data addr: %w", err))
	}
	p.Addr = addr
	return p, nil
}

// Pid returns the process id.
func (p *Proc) Pid() int { return p.Cmd.Process.Pid }

// Kill SIGKILLs the process and reaps it. The non-nil Wait error a SIGKILL
// produces is expected and not returned; only signal-delivery failure is.
func (p *Proc) Kill() error {
	if err := p.Cmd.Process.Kill(); err != nil {
		return err
	}
	p.Cmd.Wait()
	return nil
}

// Drain sends SIGTERM and waits for a clean exit; a non-zero exit status
// is returned as the Wait error.
func (p *Proc) Drain() error {
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return p.Cmd.Wait()
}

// AddrFilesGone reports whether both address files have been removed —
// the marker distinguishing a clean drain from a crash, which leaves the
// stale files behind.
func (p *Proc) AddrFilesGone() bool {
	for _, f := range []string{p.AddrFile, p.OpsFile} {
		if _, err := os.Stat(f); err == nil {
			return false
		}
	}
	return true
}

// WaitAddrFile polls for an address file the server writes once its
// listener is bound, returning the trimmed address.
func WaitAddrFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := os.ReadFile(path)
		if err == nil && len(strings.TrimSpace(string(raw))) > 0 {
			return strings.TrimSpace(string(raw)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out waiting for %s", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// HTTPGet fetches a URL with a short timeout, returning (0, "") on
// transport errors so callers can treat "not up yet" uniformly.
func HTTPGet(url string) (int, string) {
	cl := http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, string(body)
}
