package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/server"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// Service settings shared by the measured server process and the traced
// in-process replay.
const (
	serveWorkers = 2  // = nproc of the reference box
	setupHalf    = 20 // set-ups timed before the measured work, and again after
	checkSample  = 24 // responses re-computed in-process per run
)

// serveSpec sizes one serve workload's fixed request stream.
type serveSpec struct {
	name     string
	prefix   int     // unmeasured requests that warm the caches
	perSec   float64 // measured requests per --seconds, so runs last about --seconds here
	traced   int     // leading measured requests the traced replay goes through
	generate func(seed int64, n int) []request
}

var serveSpecs = map[string]serveSpec{
	"serve-zipf": {name: "serve-zipf", prefix: 3000, perSec: 2500, traced: 20000, generate: zipfStream},
}

// stream returns the warm-up prefix and the measured part. Both are fixed by
// the seed and --seconds; the measured part has at least 1000 requests so
// its p99 has ten samples beyond it.
func (sp serveSpec) stream(seed int64, seconds int) (prefix, measured []request) {
	n := max(int(sp.perSec*float64(seconds)), 1000)
	all := sp.generate(seed, sp.prefix+n)
	return all[:sp.prefix], all[sp.prefix:]
}

// serverProc is a running ccube-serve.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	waited chan error
	once   sync.Once
}

// startServer execs ccube-serve and returns once /healthz answers 200,
// with the seconds that took.
func startServer(bin string) (*serverProc, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &serverProc{addr: addr, waited: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serveWorkers), "-access-log=false")
	p.cmd.Stderr = &p.stderr
	// The server dies with the benchmark even if the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	began := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { p.waited <- p.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for time.Since(began) < 30*time.Second {
		select {
		case err := <-p.waited:
			return nil, 0, fmt.Errorf("ccube-serve exited during start-up: %v: %s", err, p.stderr.String())
		default:
		}
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(began).Seconds(), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	p.stop()
	return nil, 0, fmt.Errorf("ccube-serve did not answer /healthz within 30s: %s", p.stderr.String())
}

// stop terminates the server and waits for it to exit; later calls return
// at once.
func (p *serverProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may have exited already
		select {
		case <-p.waited:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.waited
		}
	})
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// vmHWMMB reads a process's peak resident set from /proc/<pid>/status.
func vmHWMMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// reply is what the load loop keeps of one response.
type reply struct {
	status  int
	latency time.Duration
}

// conn is one keep-alive HTTP/1.1 connection to the service. It writes each
// request in one call and reads the reply into reused buffers: net/http's
// client spends about as much CPU per request as a response-cache hit costs
// the server, and on two cores the load generator would compete with the
// program it measures.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	out  []byte // the request being written
	body []byte // the last reply's body, valid until the next post
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 16<<10), host: addr}, nil
}

// post sends one POST with a JSON body and reads the whole reply. The reply
// must carry a Content-Length; the service sets one on every reply it sends
// to these requests.
func (c *conn) post(path string, body []byte) (status int, _ []byte, err error) {
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.host...)
	c.out = append(c.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, _ := bytes.Cut(h, []byte(":"))
		if bytes.EqualFold(name, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("reply without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// drive sends reqs in order over one connection, closed loop with no think
// time: the next request goes out as soon as the previous reply is fully
// read. It returns per-request replies in stream order and the wall time,
// and records the first 200 body per distinct request in bodies; replies to
// equal requests must be byte-identical, and a difference is returned as an
// error, as is a transport error, which ends the stream.
func drive(addr string, reqs []request, bodies map[string][]byte) ([]reply, time.Duration, error) {
	// Distinct requests are numbered before the clock starts, so the loop
	// compares bodies by index without building keys.
	ids := make([]int, len(reqs))
	keys := map[string]int{}
	var order []string
	for i := range reqs {
		k := reqs[i].key()
		id, ok := keys[k]
		if !ok {
			id = len(order)
			keys[k] = id
			order = append(order, k)
		}
		ids[i] = id
	}
	seen := make([][]byte, len(order))
	c, err := dial(addr)
	if err != nil {
		return nil, 0, err
	}
	defer c.c.Close()
	replies := make([]reply, len(reqs))
	var errs []error
	began := time.Now()
	for i := range reqs {
		t0 := time.Now()
		status, body, err := c.post(reqs[i].Path, reqs[i].Body)
		replies[i] = reply{status: status, latency: time.Since(t0)}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			break
		}
		if status != http.StatusOK {
			continue
		}
		if prev := seen[ids[i]]; prev == nil {
			seen[ids[i]] = bytes.Clone(body)
		} else if !bytes.Equal(prev, body) {
			errs = append(errs, fmt.Errorf("two replies to %s differ", order[ids[i]]))
		}
	}
	wall := time.Since(began)
	for id, b := range seen {
		if b != nil {
			bodies[order[id]] = b
		}
	}
	return replies, wall, errors.Join(errs...)
}

// simOut is the simulated result carried by one response.
type simOut struct {
	Best struct {
		Algorithm    string `json:"algorithm"`
		TotalNS      int64  `json:"total_ns"`
		TurnaroundNS int64  `json:"turnaround_ns"`
	} `json:"best"`
	TotalNS    int64 `json:"total_ns"`
	IterTimeNS int64 `json:"iter_time_ns"`
}

// checkBody decodes a 200 body and checks its fields are sane.
func checkBody(r *request, body []byte) (simOut, error) {
	var o simOut
	if err := json.Unmarshal(body, &o); err != nil {
		return o, fmt.Errorf("%s: undecodable reply: %v", r.key(), err)
	}
	switch {
	case r.Plan != nil && (o.Best.Algorithm == "" || o.Best.TotalNS <= 0):
		return o, fmt.Errorf("%s: reply has no best candidate", r.key())
	case r.Sim != nil && o.TotalNS <= 0:
		return o, fmt.Errorf("%s: reply has total_ns %d", r.key(), o.TotalNS)
	case r.Train != nil && o.IterTimeNS <= 0:
		return o, fmt.Errorf("%s: reply has iter_time_ns %d", r.key(), o.IterTimeNS)
	}
	return o, nil
}

// recompute runs a request's simulation in-process through the library entry
// points and returns the nanoseconds the service must have answered: the
// best candidate's total for plan, total for simulate, iteration time for
// train.
func recompute(ctx context.Context, graphs *graphSet, r *request) (int64, error) {
	switch {
	case r.Plan != nil:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return 0, err
		}
		ranked, err := autotune.SelectWith(ctx, g, int64(r.Plan.Bytes), planOptions(r.Plan))
		if err != nil {
			return 0, err
		}
		return int64(ranked[0].Total), nil
	case r.Sim != nil && r.Sim.Fault != "":
		g, err := buildGraph(r.Topo)
		if err != nil {
			return 0, err
		}
		plan, err := fault.ParseSpec(g, r.Sim.Fault)
		if err != nil {
			return 0, err
		}
		res, _, err := fault.RunCollectiveCtx(ctx, simConfig(g, r.Sim), plan)
		if err != nil {
			return 0, err
		}
		return int64(res.Total), nil
	case r.Sim != nil:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return 0, err
		}
		res, err := collective.RunCtx(ctx, simConfig(g, r.Sim))
		if err != nil {
			return 0, err
		}
		return int64(res.Total), nil
	default:
		g, err := graphs.get(r.Topo)
		if err != nil {
			return 0, err
		}
		res, err := runTrain(ctx, g, r.Train)
		if err != nil {
			return 0, err
		}
		return int64(res.IterTime), nil
	}
}

func planOptions(p *server.PlanRequest) autotune.Options {
	o := autotune.Options{RequireInOrder: p.RequireInOrder, AllowShared: p.AllowShared, AllowSynth: p.AllowSynth}
	if p.Objective == "turnaround" {
		o.Objective = autotune.Turnaround
	}
	return o
}

var algorithms = map[string]collective.Algorithm{
	"ring":             collective.AlgRing,
	"tree":             collective.AlgTree,
	"tree-overlap":     collective.AlgTreeOverlap,
	"double-tree":      collective.AlgDoubleTree,
	"ccube":            collective.AlgDoubleTreeOverlap,
	"halving-doubling": collective.AlgHalvingDoubling,
}

func simConfig(g *topology.Graph, s *server.SimulateRequest) collective.Config {
	return collective.Config{Graph: g, Algorithm: algorithms[s.Algorithm], Bytes: int64(s.Bytes),
		Chunks: s.Chunks, AllowSharedChannels: s.AllowShared}
}

var modelByName = map[string]func() dnn.Model{
	"zfnet": dnn.ZFNet, "vgg16": dnn.VGG16, "resnet50": dnn.ResNet50, "bert-base": dnn.BERTBase,
}

func runTrain(ctx context.Context, g *topology.Graph, t *server.TrainRequest) (*train.Result, error) {
	cfg := train.Config{Model: modelByName[t.Model](), Batch: t.Batch, Graph: g,
		Chunks: t.Chunks, AllowSharedChannels: t.AllowShared}
	if train.Mode(t.Mode) == train.ModeDDP {
		return train.RunBackwardOverlapCtx(ctx, cfg)
	}
	cfg.Mode = train.Mode(t.Mode)
	return train.RunCtx(ctx, cfg)
}

// serveOutcome summarizes the checked replies of one measured stream.
type serveOutcome struct {
	failed int
	simUS  []float64 // one per distinct plan/simulate request
}

// checkReplies checks every reply of the measured stream and re-computes a
// seeded sample of distinct requests in-process; any mismatch is an error.
func checkReplies(seed int64, reqs []request, replies []reply, bodies map[string][]byte) (serveOutcome, error) {
	var out serveOutcome
	distinct := map[string]*request{}
	var order []string
	var firstFail string
	for i := range reqs {
		if replies[i].status != http.StatusOK {
			if out.failed == 0 {
				firstFail = fmt.Sprintf("; first: %s answered %d", reqs[i].key(), replies[i].status)
			}
			out.failed++
			continue
		}
		if k := reqs[i].key(); distinct[k] == nil {
			distinct[k] = &reqs[i]
			order = append(order, k)
		}
	}
	if out.failed > 0 {
		return out, fmt.Errorf("%d of %d requests failed%s", out.failed, len(reqs), firstFail)
	}
	got := map[string]int64{}
	for _, k := range order {
		r := distinct[k]
		o, err := checkBody(r, bodies[k])
		if err != nil {
			return out, err
		}
		switch {
		case r.Plan != nil:
			got[k] = o.Best.TotalNS
			out.simUS = append(out.simUS, float64(o.Best.TotalNS)/1e3)
		case r.Sim != nil:
			got[k] = o.TotalNS
			out.simUS = append(out.simUS, float64(o.TotalNS)/1e3)
		default:
			got[k] = o.IterTimeNS
		}
	}
	rng := rand.New(rand.NewSource(seed))
	graphs := newGraphSet(nil)
	for _, i := range rng.Perm(len(order))[:min(checkSample, len(order))] {
		k := order[i]
		want, err := recompute(context.Background(), graphs, distinct[k])
		if err != nil {
			return out, fmt.Errorf("re-compute %s: %w", k, err)
		}
		if want != got[k] {
			return out, fmt.Errorf("%s: service answered %d ns, in-process re-computation gives %d ns", k, got[k], want)
		}
	}
	return out, nil
}

// timeSetups appends setupHalf set-up times measured by once. A run takes
// one half before its measured work and one after, so setup_s samples the
// machine's drifting speed at two moments a run length apart.
func timeSetups(setups []float64, once func() (float64, error)) ([]float64, error) {
	for i := 0; i < setupHalf; i++ {
		s, err := once()
		if err != nil {
			return setups, err
		}
		setups = append(setups, s)
	}
	return setups, nil
}

// runServe measures one serve workload end to end against a ccube-serve
// process: throughput over the whole measured window and p99 over every
// measured request. The p50, a response-cache hit, is only logged: see
// README.md.
func runServe(sp serveSpec, bin string, seed int64, seconds int) (result, error) {
	prefix, measured := sp.stream(seed, seconds)
	startStop := func() (float64, error) {
		p, s, err := startServer(bin)
		if err == nil {
			p.stop()
		}
		return s, err
	}
	setups, err := timeSetups(nil, startStop)
	if err != nil {
		return result{}, err
	}
	proc, s, err := startServer(bin)
	if err != nil {
		return result{}, err
	}
	defer proc.stop()
	setups = append(setups, s)

	if _, _, err := drive(proc.addr, prefix, map[string][]byte{}); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	bodies := map[string][]byte{}
	replies, wall, err := drive(proc.addr, measured, bodies)
	if err != nil {
		return result{}, err
	}
	rss, err := vmHWMMB(strconv.Itoa(proc.cmd.Process.Pid))
	proc.stop()
	if err != nil {
		return result{}, err
	}
	out, err := checkReplies(seed, measured, replies, bodies)
	if err != nil {
		return result{attempted: len(measured), failed: out.failed}, err
	}
	if setups, err = timeSetups(setups, startStop); err != nil {
		return result{}, err
	}
	lat := make([]float64, len(replies))
	for i, r := range replies {
		lat[i] = float64(r.latency) / 1e6
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests measured in %.1fs (%d warm-up), %d distinct; p50 %.4f ms; tail is p%.4g; set-up seconds %.4f\n",
		sp.name, len(measured), wall.Seconds(), len(prefix), len(bodies), median(lat), 100*tailQuantile(len(lat)), sortedCopy(setups))
	return result{
		attempted: len(measured),
		failed:    out.failed,
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"throughput_per_s", float64(len(measured)-out.failed) / wall.Seconds(), "1/s"},
			{"latency_tail_ms", tail(lat), "ms"},
			{"peak_rss_mb", rss, "MB"},
			{"sim_allreduce_geomean_us", geomean(out.simUS), "us"},
		},
	}, nil
}
