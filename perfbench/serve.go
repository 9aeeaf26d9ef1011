package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/ipx"
)

// serveShape is one geoserve traffic mix.
type serveShape struct {
	name   string
	salt   int64 // keeps the two mixes' address draws apart
	batch  int   // addresses per POST /v2/lookup
	bodies int   // distinct request bodies, cycled round-robin
	// reloadEvery > 0 arms -admin and makes connection 0 send a forced
	// reload after every reloadEvery of its own lookups.
	reloadEvery int
}

var (
	// bulkShape: large batches, so per-address parse/resolve/encode
	// dominates and the batch fan-out above 256 addresses is engaged.
	bulkShape = serveShape{name: "serve-bulk", salt: 0x6b756c62, batch: 4096, bodies: 32}
	// churnShape: small batches, so per-request HTTP and middleware cost
	// dominates, with snapshot reloads (open, swap, drain) beside them.
	churnShape = serveShape{name: "serve-churn", salt: 0x6e727563, batch: 16, bodies: 512, reloadEvery: 400}
)

// inRangeShare is the share of addresses drawn inside a served range;
// the rest are uniform over the IPv4 space.
const inRangeShare = 0.9

const (
	serveStarts   = 9 // geoserve start-ups timed per run; median is setup_s
	serveSegments = 4 // of which this many serve a timed segment each
	minRequests   = 1000
	warmup        = 500 * time.Millisecond
)

// conns is the number of closed-loop connections: two, or one on a
// single-CPU machine, so the generator never has more threads busy than
// there are CPUs.
func (b *bench) conns() int { return min(2, b.nproc) }

// published is the seed's snapshot set, as geosnap wrote it and as the
// benchmark opened it in process to derive inputs and expected answers.
type published struct {
	dir   string
	paths []string
	dbs   map[string]*geodb.DB
	names []string
	gen   string // set-level generation id the server must report
	close func()
}

// publish runs geosnap -build for the seed into dir and opens the result.
func (b *bench) publish(dir string) (*published, error) {
	snapDir := filepath.Join(dir, "snaps")
	cmd := exec.Command(filepath.Join(b.bin, "geosnap"), "-build", "-seed", strconv.FormatInt(b.seed, 10), "-out", snapDir)
	cmd.Env = b.childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("geosnap -build: %v: %s", err, lastLine(string(out)))
	}
	paths, err := filepath.Glob(filepath.Join(snapDir, "*"+snapshot.Ext))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("geosnap wrote no snapshots into %s", snapDir)
	}
	sort.Strings(paths)
	p := &published{dir: snapDir, paths: paths, dbs: map[string]*geodb.DB{}}
	dbs, closers, err := openSet(paths)
	if err != nil {
		return nil, err
	}
	p.close = func() {
		for _, c := range closers {
			_ = c()
		}
	}
	for _, db := range dbs {
		p.dbs[db.Name()] = db
		p.names = append(p.names, db.Name())
	}
	sort.Strings(p.names)
	p.gen = httpapi.NewHandler(dbs).Generation()
	return p, nil
}

// openSet opens every snapshot file, as the server's reloader does.
func openSet(paths []string) ([]*geodb.DB, []func() error, error) {
	var dbs []*geodb.DB
	var closers []func() error
	for _, path := range paths {
		h, err := snapshot.Open(path)
		if err != nil {
			for _, c := range closers {
				_ = c()
			}
			return nil, nil, err
		}
		dbs = append(dbs, h.DB())
		closers = append(closers, h.Close)
	}
	return dbs, closers, nil
}

// lookupBody is one generated POST /v2/lookup request.
type lookupBody struct {
	db    string
	addrs []ipx.Addr
	raw   []byte // JSON body
	req   []byte // the whole HTTP request
}

// makeBodies draws the shape's distinct request bodies from the seed.
// Body i asks database i mod 4, one database per request like the
// repository's own callers (Client.BatchLookup, RemoteProvider).
func makeBodies(p *published, shape serveShape, seed int64) ([]lookupBody, error) {
	rng := rand.New(rand.NewSource(seed ^ shape.salt))
	out := make([]lookupBody, shape.bodies)
	for i := range out {
		name := p.names[i%len(p.names)]
		los, his, _, _, _ := p.dbs[name].Parts()
		req := httpapi.BatchRequest{DB: name, IPs: make([]string, shape.batch)}
		addrs := make([]ipx.Addr, shape.batch)
		for k := range addrs {
			a := ipx.Addr(rng.Uint32())
			if rng.Float64() < inRangeShare && len(los) > 0 {
				r := rng.Intn(len(los))
				a = los[r] + ipx.Addr(rng.Int63n(int64(his[r]-los[r])+1))
			}
			addrs[k] = a
			req.IPs[k] = a.String()
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out[i] = lookupBody{db: name, addrs: addrs, raw: raw, req: httpPost("/v2/lookup", raw)}
	}
	return out, nil
}

// checker verifies answers. The first response to each distinct body is
// decoded and compared entry by entry with the in-process snapshot's
// DB.Lookup; every later response to that body must equal it byte for
// byte.
type checker struct {
	p      *published
	bodies []lookupBody
	mu     sync.Mutex
	seen   [][]byte
	found  []int // per body: addresses found
}

func newChecker(p *published, bodies []lookupBody) *checker {
	return &checker{p: p, bodies: bodies, seen: make([][]byte, len(bodies)), found: make([]int, len(bodies))}
}

// wantRecord is the wire form the server must give a lookup result.
func wantRecord(rec geodb.Record, found bool) httpapi.RecordJSON {
	if !found {
		return httpapi.RecordJSON{Resolution: "none"}
	}
	return httpapi.RecordJSON{
		Country: rec.Country, City: rec.City,
		Lat: rec.Coord.Lat, Lon: rec.Coord.Lon,
		Resolution: rec.Resolution.String(),
		BlockBits:  rec.BlockBits,
		Found:      true,
	}
}

// verify checks one response to body i and returns the number of
// addresses found in it.
func (c *checker) verify(i int, resp []byte) (int, error) {
	c.mu.Lock()
	prev, found := c.seen[i], c.found[i]
	c.mu.Unlock()
	if prev != nil {
		if !bytes.Equal(prev, resp) {
			return 0, fmt.Errorf("body %d: response differs from its verified answer", i)
		}
		return found, nil
	}
	body := c.bodies[i]
	var br httpapi.BatchResponse
	if err := json.Unmarshal(resp, &br); err != nil {
		return 0, fmt.Errorf("body %d: decode response: %v", i, err)
	}
	if len(br.Entries) != len(body.addrs) {
		return 0, fmt.Errorf("body %d: %d entries for %d addresses", i, len(br.Entries), len(body.addrs))
	}
	db := c.p.dbs[body.db]
	found = 0
	for k, e := range br.Entries {
		a := body.addrs[k]
		got, ok := e.Results[body.db]
		if e.IP != a.String() || e.Error != "" || len(e.Results) != 1 || !ok {
			return 0, fmt.Errorf("body %d entry %d: malformed answer for %s", i, k, a)
		}
		rec, hit := db.Lookup(a)
		if want := wantRecord(rec, hit); got != want {
			return 0, fmt.Errorf("body %d: %s in %s answered %+v, snapshot says %+v", i, a, body.db, got, want)
		}
		if hit {
			found++
		}
	}
	c.mu.Lock()
	c.seen[i], c.found[i] = append([]byte(nil), resp...), found
	c.mu.Unlock()
	return found, nil
}

// server is one running geoserve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
	logTail *tailBuffer
}

// tailBuffer keeps the last lines a child wrote to stderr, for errors.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 5 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// startServer execs geoserve on an ephemeral loopback port over the
// snapshot directory and returns once /healthz answers 200, with the
// time that took. The poll interval for directory changes is an hour:
// the workload reloads through the admin endpoint only, so a background
// rescan never collides with it.
func (b *bench) startServer(snapDir string, admin bool) (*server, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-snap-dir", snapDir, "-quiet", "-grace", "0", "-reload-interval", "1h"}
	if admin {
		args = append(args, "-admin")
	}
	cmd := exec.Command(filepath.Join(b.bin, "geoserve"), args...)
	cmd.Env = b.childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, logDone: make(chan struct{}), logTail: &tailBuffer{}}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.logTail.add(line)
			if a, ok := strings.CutPrefix(line, "listening on "); ok && !sent {
				addrCh <- a
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long to scan must not block the child
	}()
	fail := func(err error) (*server, time.Duration, error) {
		_ = cmd.Process.Kill()
		<-s.logDone
		_ = cmd.Wait()
		return nil, 0, fmt.Errorf("geoserve: %v (%s)", err, s.logTail)
	}
	select {
	case a, ok := <-addrCh:
		if !ok {
			return fail(errors.New("exited before listening"))
		}
		s.base = a
	case <-time.After(60 * time.Second):
		return fail(errors.New("no listening line within 60s"))
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			return fail(errors.New("/healthz not 200 within 60s"))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-s.logDone
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("geoserve exit after SIGTERM: %v (%s)", err, s.logTail)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("geoserve did not exit within 30s of SIGTERM")
	}
}

// kill stops a set-up instance at once. Set-up instances are only timed
// to readiness; a SIGTERM that early can land before geoserve installs
// its signal handler, so graceful shutdown is checked on the instance
// that served the load instead.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.logDone
	_ = s.cmd.Wait()
}

// cpu reads the server's user+system CPU from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", s.cmd.Process.Pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// gcCycles scrapes go_gc_cycles_total from the server's /metrics.
func (s *server) gcCycles() (float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "go_gc_cycles_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("no go_gc_cycles_total in /metrics")
}

// loadStats is what one closed-loop phase measured.
type loadStats struct {
	lat      []time.Duration // lookup round trips
	reloads  []time.Duration // forced reload round trips
	lookups  int64           // addresses looked up by successful requests
	found    int64           // of which found
	elapsed  time.Duration
	requests int64
}

// load drives the closed loop: b.conns() connections, each sending its
// next request only after the previous answer is read and checked. It
// runs until the deadline has passed and at least minReq lookup requests
// have been sent. Bodies are cycled round-robin across connections, so a
// phase of at least len(bodies) requests sends every distinct body.
// Every request, lookup or reload, is one attempted operation in the
// tally. With a tracer, each request is a span carrying its request id.
// A non-nil progress counts looked-up addresses as answers arrive.
func (b *bench) load(s *server, chk *checker, shape serveShape, deadline time.Time, minReq int64, tr *tracer, progress *atomic.Int64) loadStats {
	var (
		next, sent, ids atomic.Int64
		lookups, hits   atomic.Int64
		mu              sync.Mutex
		st              loadStats
		wg              sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < b.conns(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := &conn{addr: strings.TrimPrefix(s.base, "http://")}
			defer cn.close()
			var lat, reloads []time.Duration
			var buf bytes.Buffer
			for n := 0; time.Now().Before(deadline) || sent.Load() < minReq; n++ {
				if shape.reloadEvery > 0 && c == 0 && n%shape.reloadEvery == shape.reloadEvery-1 {
					id := tr.startReq(0, "client.reload", ids.Add(1))
					d, err := b.reload(cn, chk.p.gen, &buf)
					tr.end(id)
					b.tally.record(err == nil)
					if err != nil {
						b.problem("reload: %v", err)
						continue
					}
					reloads = append(reloads, d)
					continue
				}
				i := int((next.Add(1) - 1) % int64(len(chk.bodies)))
				id := tr.startReq(0, "client.lookup", ids.Add(1))
				d, found, err := b.lookup(cn, chk, i, &buf)
				tr.end(id)
				sent.Add(1)
				b.tally.record(err == nil)
				if err != nil {
					b.problem("lookup: %v", err)
					continue
				}
				lat = append(lat, d)
				lookups.Add(int64(len(chk.bodies[i].addrs)))
				hits.Add(int64(found))
				if progress != nil {
					progress.Add(int64(len(chk.bodies[i].addrs)))
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.reloads = append(st.reloads, reloads...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.lookups, st.found, st.requests = lookups.Load(), hits.Load(), sent.Load()
	return st
}

// conn is one keep-alive HTTP/1.1 connection of the closed loop. It
// writes prebuilt requests and parses each answer with http.ReadResponse
// into a reused buffer: far less generator CPU than http.Client, and on
// a machine the server shares, the generator's CPU is taken from it.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func (cn *conn) close() {
	if cn.c != nil {
		_ = cn.c.Close()
		cn.c = nil
	}
}

// do sends req, a complete HTTP/1.1 request, and reads the answer's body
// into buf. It dials on first use and after the server closed the
// connection; any error drops the connection.
func (cn *conn) do(req []byte, buf *bytes.Buffer) (status int, gen string, err error) {
	if cn.c == nil {
		if cn.c, err = net.Dial("tcp", cn.addr); err != nil {
			return 0, "", err
		}
		cn.br = bufio.NewReaderSize(cn.c, 64<<10)
	}
	defer func() {
		if err != nil {
			cn.close()
		}
	}()
	if err = cn.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, "", err
	}
	if _, err = cn.c.Write(req); err != nil {
		return 0, "", err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	if resp.Close {
		cn.close()
	}
	return resp.StatusCode, resp.Header.Get(httpapi.GenerationHeader), nil
}

// httpPost is a complete HTTP/1.1 POST request for path with body.
func httpPost(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}

var reloadRequest = httpPost("/v2/admin/reload?force=1", nil)

// lookup sends body i and checks the answer.
func (b *bench) lookup(cn *conn, chk *checker, i int, buf *bytes.Buffer) (time.Duration, int, error) {
	start := time.Now()
	status, gen, err := cn.do(chk.bodies[i].req, buf)
	d := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %s", status, lastLine(buf.String()))
	}
	if gen != chk.p.gen {
		return 0, 0, fmt.Errorf("answered by generation %q, published set is %q", gen, chk.p.gen)
	}
	found, err := chk.verify(i, buf.Bytes())
	return d, found, err
}

// reload forces a snapshot rescan and checks that the generation now
// serving is the published set's.
func (b *bench) reload(cn *conn, want string, buf *bytes.Buffer) (time.Duration, error) {
	start := time.Now()
	status, gen, err := cn.do(reloadRequest, buf)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	var rr httpapi.ReloadResponse
	if status != http.StatusOK || json.Unmarshal(buf.Bytes(), &rr) != nil {
		return 0, fmt.Errorf("status %d: %s", status, lastLine(buf.String()))
	}
	if rr.Status != "reloaded" || rr.Generation != want || gen != want {
		return 0, fmt.Errorf("reload answered %+v (header %q), published set is %q", rr, gen, want)
	}
	return d, nil
}

// window is one sampling interval of a timed phase.
type window struct {
	secs    float64
	lookups int64
	cpu     time.Duration // server CPU
}

// sampleWindows samples the lookups completed and the server's CPU once
// a second until stop is closed; a trailing partial window is dropped.
func sampleWindows(s *server, progress *atomic.Int64, stop <-chan struct{}) []window {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var out []window
	last, n0 := time.Now(), progress.Load()
	c0, err := s.cpu()
	for err == nil {
		select {
		case <-stop:
			return out
		case now := <-t.C:
			n1 := progress.Load()
			c1, cerr := s.cpu()
			if cerr != nil {
				return out
			}
			out = append(out, window{secs: now.Sub(last).Seconds(), lookups: n1 - n0, cpu: c1 - c0})
			last, n0, c0 = now, n1, c1
		}
	}
	return out
}

// segment is what one timed segment, on one geoserve instance, measured.
type segment struct {
	st        loadStats
	wins      []window
	cpu       time.Duration // server CPU over the timed phase
	clientCPU time.Duration
	peakMB    float64
}

// runSegment warms s up, measures one closed-loop phase of length d
// (and at least minReq lookup requests), then stops s with SIGTERM and
// checks that it exits cleanly.
func (b *bench) runSegment(s *server, chk *checker, shape serveShape, d time.Duration, minReq int64) (seg segment, err error) {
	stopped := false
	defer func() {
		if !stopped {
			_ = s.stop()
		}
	}()
	b.load(s, chk, shape, time.Now().Add(warmup), int64(len(chk.bodies)), nil, nil)

	cpu0, err := s.cpu()
	if err != nil {
		return seg, err
	}
	ccpu0 := cpuTime()
	var progress atomic.Int64
	stopSampling := make(chan struct{})
	sampled := make(chan []window, 1)
	go func() { sampled <- sampleWindows(s, &progress, stopSampling) }()
	seg.st = b.load(s, chk, shape, time.Now().Add(d), minReq, nil, &progress)
	close(stopSampling)
	seg.wins = <-sampled
	cpu1, err := s.cpu()
	if err != nil {
		return seg, err
	}
	seg.cpu, seg.clientCPU = cpu1-cpu0, cpuTime()-ccpu0
	if seg.peakMB, err = procStatusMB(strconv.Itoa(s.cmd.Process.Pid), "VmHWM"); err != nil {
		return seg, err
	}
	stopped = true
	stopErr := s.stop()
	b.tally.record(stopErr == nil)
	if stopErr != nil {
		b.problem("%v", stopErr)
	}
	return seg, nil
}

// runServe is a serve-* workload against the real geoserve: geosnap
// publishes the seed's four snapshots (untimed), then geoserve is
// started serveStarts times; exec until /healthz answers 200 is the
// set-up. The last serveSegments instances each serve one timed segment
// of the run, after a warm-up: run-to-run differences that stick to one
// server process for its lifetime average out over several.
func runServe(b *bench, shape serveShape) error {
	dir, err := b.workDir(shape.name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := b.publish(dir)
	if err != nil {
		return err
	}
	defer p.close()
	bodies, err := makeBodies(p, shape, b.seed)
	if err != nil {
		return err
	}
	chk := newChecker(p, bodies)

	var setups []float64
	var segs []segment
	for i := 0; i < serveStarts; i++ {
		srv, d, err := b.startServer(p.dir, shape.reloadEvery > 0)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < serveStarts-serveSegments {
			srv.kill()
			continue
		}
		seg, err := b.runSegment(srv, chk, shape, b.seconds/serveSegments, (minRequests+serveSegments-1)/serveSegments)
		if err != nil {
			return err
		}
		segs = append(segs, seg)
	}

	var (
		lat, reloads, peaks, rates, costs []float64
		lookups, found, requests          int64
		elapsed, cpu, clientCPU           time.Duration
		windows                           int
	)
	for _, seg := range segs {
		lat = append(lat, durationsMs(seg.st.lat)...)
		reloads = append(reloads, durationsMs(seg.st.reloads)...)
		peaks = append(peaks, seg.peakMB)
		lookups, found, requests = lookups+seg.st.lookups, found+seg.st.found, requests+seg.st.requests
		elapsed, cpu, clientCPU = elapsed+seg.st.elapsed, cpu+seg.cpu, clientCPU+seg.clientCPU
		for _, w := range seg.wins {
			if w.lookups > 0 {
				rates = append(rates, float64(w.lookups)/w.secs)
				costs = append(costs, usOf(w.cpu)/float64(w.lookups))
			}
		}
		windows += len(seg.wins)
	}
	if len(lat) == 0 || lookups == 0 {
		return errNoSamples
	}
	lat = sortedCopy(lat)
	tailP, tailOK := tailPercentile(len(lat))
	// Throughput and server CPU per lookup are medians over one-second
	// windows, so a stall the host imposes on part of a run moves them
	// less than it would a whole-run mean; every window still holds
	// ~14 reloads on serve-churn, so the workload's own stalls count.
	// Segments too short for a window fall back to whole-phase values.
	lps, usPerLookup := float64(lookups)/elapsed.Seconds(), usOf(cpu)/float64(lookups)
	if len(rates) > 0 {
		lps, usPerLookup = median(rates), median(costs)
	}

	b.report("setup_s", median(setups), "s", len(setups))
	b.report("lookups_per_s", lps, "1/s", len(rates))
	b.report("latency_p50_ms", median(lat), "ms", len(lat))
	switch {
	case !tailOK:
		fmt.Printf("  too few requests (%d) for a tail percentile\n", len(lat))
	case tailP > 99:
		b.report("latency_p99_ms", nearestRank(lat, 99), "ms", len(lat))
		fallthrough
	default:
		b.report(fmt.Sprintf("latency_p%g_ms", tailP), nearestRank(lat, tailP), "ms", len(lat))
	}
	b.report("server_cpu_us_per_klookup", 1000*usPerLookup, "us", len(costs))
	b.report("client_cpu_us_per_klookup", 1000*usOf(clientCPU)/float64(lookups), "us", len(lat))
	if len(reloads) > 0 {
		b.report("reload_ms", median(reloads), "ms", len(reloads))
	}
	b.report("peak_rss_mb", median(peaks), "MB", len(peaks))
	fmt.Printf("  (lookups_per_s and server CPU: medians of %d one-second windows over %d server processes; whole phase: %.6g lookups/s, %.6g us server CPU per klookup)\n",
		windows, len(segs), float64(lookups)/elapsed.Seconds(), 1000*usOf(cpu)/float64(lookups))
	fmt.Printf("  closed loop: %d connections, %d-address batches, %d distinct bodies, %d lookup requests in %.2fs, hit ratio %.4f\n",
		b.conns(), shape.batch, len(bodies), requests, elapsed.Seconds(), float64(found)/float64(lookups))

	b.setMetric("setup_s", median(setups), "s")
	b.setMetric("latency_p50_ms", median(lat), "ms")
	b.setMetric("cpu_us_per_item", usPerLookup, "us")
	b.setMetric("peak_rss_mb", median(peaks), "MB")
	return nil
}
