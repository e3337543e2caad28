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
	"strconv"
	"syscall"
	"time"

	"kcore"
)

// serverProc is one kcore-server process on loopback.
type serverProc struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port of the service API
	done chan struct{}
	logf string
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches kcore-server over numVertices vertices with the
// given extra flags and returns once it answers /healthz (a server with
// -load listens only after the load completed).
func startServer(cfg config, name string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf := filepath.Join(cfg.dir, name+".log")
	lf, err := os.OpenFile(logf, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	args = append([]string{"-n", strconv.Itoa(numVertices), "-addr", addr}, args...)
	cmd := exec.Command(cfg.server, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{name: name, cmd: cmd, base: "http://" + addr, done: make(chan struct{}), logf: logf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(120 * time.Second)
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up: %s", name, p.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not ready after 120s: %s", name, p.logTail())
		}
	}
}

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.logf)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop shuts the server down (SIGTERM, then SIGKILL after 10s) and waits
// until the process has exited.
func (p *serverProc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *serverProc) peakRSS() float64 { return procStatusMB(strconv.Itoa(p.cmd.Process.Pid), "VmHWM") }

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Edges      int64  `json:"edges"`
	Epoch      uint64 `json:"epoch"`
	Durability *struct {
		LoggedBatches uint64 `json:"logged_batches"`
	} `json:"durability"`
	Feed struct {
		Epochs uint64 `json:"epochs"`
		Events uint64 `json:"events"`
		Gaps   uint64 `json:"gaps"`
	} `json:"feed"`
	Overload struct {
		RateLimited int64 `json:"rate_limited"`
		LoadShed    int64 `json:"load_shed"`
		Timeouts    int64 `json:"timeouts"`
	} `json:"overload"`
	Replication *struct {
		Feeder *struct {
			BytesShipped uint64 `json:"bytes_shipped"`
		} `json:"feeder"`
		Follower *struct {
			RecordsApplied uint64 `json:"records_applied"`
			ApplyRounds    uint64 `json:"apply_rounds"`
		} `json:"follower"`
	} `json:"replication"`
}

// client is one keep-alive connection to a server.
type client struct{ hc *http.Client }

func newClient(timeout time.Duration) *client {
	return &client{hc: &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 response's JSON body into out
// (when non-nil). The raw body is returned too.
func (c *client) do(method, url string, body []byte, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s %s: %v", method, url, err)
		}
	}
	return raw, nil
}

func (c *client) stats(p *serverProc) (serverStats, error) {
	var st serverStats
	_, err := c.do("GET", p.base+"/stats", nil, &st)
	return st, err
}

// writeBaseFile writes the set-up graph as an edge list for -load.
func writeBaseFile(cfg config, s *stream) (string, error) {
	var b []byte
	for _, e := range s.base() {
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, '\n')
	}
	path := filepath.Join(cfg.dir, "base.txt")
	return path, os.WriteFile(path, b, 0o644)
}

// batchBody encodes one write as a POST /edges/batch body.
func batchBody(ins, del []kcore.Edge) []byte {
	b := []byte(`{"insert":`)
	b = appendEdges(b, ins)
	b = append(b, `,"delete":`...)
	b = appendEdges(b, del)
	return append(b, '}')
}

func appendEdges(b []byte, es []kcore.Edge) []byte {
	b = append(b, '[')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// bulkBody encodes a POST /coreness/bulk body; epoch < 0 reads the latest.
func bulkBody(vs []uint32, epoch int64) []byte {
	b := []byte(`{"vertices":[`)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	b = append(b, ']')
	if epoch >= 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, epoch, 10)
	}
	return append(b, '}')
}

// waitEpoch polls a server's /stats until its epoch reaches want.
func waitEpoch(c *client, p *serverProc, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.stats(p)
		if err == nil && st.Epoch >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not reach epoch %d in %v (last %d, %v)", p.name, want, timeout, st.Epoch, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
