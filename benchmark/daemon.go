package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// outDir is where a run leaves its artefacts: traces, tables and the
// daemon binary. It is ignored by git.
const outDir = "benchmark/out"

// buildDaemon compiles cmd/stopifyd into dir. It names the package by its
// import path, so it works from anywhere inside the module.
func buildDaemon(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "stopifyd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/stopifyd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building stopifyd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running stopifyd child with one worker, spoken to over one
// keep-alive connection.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	readyMs float64 // process start to the first 200 from /readyz
}

// startDaemon starts the child on a port that is free now — a fixed port
// collides with whatever the last run left in TIME_WAIT — and waits until
// /readyz answers.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr, "-workers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	dieWithParent(cmd)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stopifyd: %w", err)
	}
	d := &daemon{
		cmd: cmd, base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyMs = ms(time.Since(t0))
				return d, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, fmt.Errorf("stopifyd on %s not ready after 10s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the child and waits until it has ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// request runs one program the way an HTTP client would: POST /run, then
// follow /output until the guest finishes.
func (d *daemon) request(src string) (string, error) {
	body, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	var admitted struct {
		ID uint64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST /run: status %d, %v", resp.StatusCode, err)
	}
	resp, err = d.client.Get(fmt.Sprintf("%s/output?id=%d&follow=1", d.base, admitted.ID))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /output: status %d, %v", resp.StatusCode, err)
	}
	return string(out), nil
}
