package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routergeo/internal/ark"
	"routergeo/internal/atlas"
	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/groundtruth"
	"routergeo/internal/hints"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/rdns"
	"routergeo/internal/vendors"
)

// runTraced is the traced run. Whatever --workload names, it measures
// the layers of every workload, so each traced run reports every
// per-layer metric: the repro pipeline, one drift pass, and both serve
// mixes. Spans are recorded only here, around calls into the modules'
// public functions; the program itself is not instrumented.
func runTraced(b *bench) error {
	if err := tracedRepro(b); err != nil {
		return err
	}
	if err := tracedDrift(b); err != nil {
		return err
	}
	return tracedServe(b)
}

// layer records and prints one per-layer metric.
func (b *bench) layer(name string, v float64, unit string) {
	b.setMetric(name, v, unit)
	fmt.Printf("  %-44s %14.6g %s\n", name, v, unit)
}

// check books one fidelity check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.tally.record(ok)
	if !ok {
		b.problem(format, args...)
	}
}

func (b *bench) saveTrace(tr *tracer, part string) error {
	path := filepath.Join(b.work, fmt.Sprintf("trace-%s-seed%d.json", part, b.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanNamed returns the first span called name.
func spanNamed(spans []span, name string) span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}

// reproStages are the environment build's stages in experiments.NewEnv's
// order, as composeEnv names them.
var reproStages = []string{
	"netsim.build", "rdns.synthesize", "ark.collect",
	"atlas.deploy", "atlas.run_builtins", "atlas.run_builtins_1ms",
	"groundtruth.build_dns", "groundtruth.build_rtt", "groundtruth.merge", "core.targets",
	"netsim.evolve", "groundtruth.build_1ms", "vendors.build",
}

// composeEnv builds the environment the way experiments.NewEnv does,
// from the same public functions in the same order, but serially and
// with a span around each stage. The traced run checks that it yields
// the same databases and targets as NewEnv. It also returns the size of
// the 1 ms comparison campaign, which Env does not keep.
func composeEnv(ctx context.Context, tr *tracer, root int, cfg experiments.Config) (*experiments.Env, int, error) {
	stage := func(name string, f func()) {
		sp := tr.start(root, name)
		f()
		tr.end(sp)
	}
	var err error
	e := &experiments.Env{Cfg: cfg}
	stage("netsim.build", func() { e.W, err = netsim.Build(cfg.World) })
	if err != nil {
		return nil, 0, err
	}
	w := e.W
	stage("rdns.synthesize", func() {
		e.Dict = hints.NewDictionary(w.Gaz)
		e.Dec = hints.NewDecoder(e.Dict)
		e.Zone = rdns.Synthesize(w, e.Dict, cfg.RDNS)
	})
	stage("ark.collect", func() { e.Coll = ark.Collect(ctx, w, cfg.Ark) })
	var fleet2 *atlas.Fleet
	var ms2 []atlas.Measurement
	fleet2Cfg := cfg.Atlas
	fleet2Cfg.Probes = cfg.OneMsProbes
	fleet2Cfg.Seed = cfg.Atlas.Seed + 1000
	stage("atlas.deploy", func() { e.Fleet = atlas.Deploy(w, cfg.Atlas) })
	stage("atlas.run_builtins", func() { e.Measurements = e.Fleet.RunBuiltins(cfg.Atlas.Seed + 1) })
	stage("atlas.deploy", func() { fleet2 = atlas.Deploy(w, fleet2Cfg) })
	stage("atlas.run_builtins_1ms", func() { ms2 = fleet2.RunBuiltins(fleet2Cfg.Seed + 1) })
	for _, id := range e.Coll.Interfaces {
		e.ArkAddrs = append(e.ArkAddrs, w.Interfaces[id].Addr)
	}
	stage("groundtruth.build_dns", func() { e.DNS, e.DNSStats = groundtruth.BuildDNS(ctx, w, e.Coll, e.Zone, e.Dec) })
	stage("groundtruth.build_rtt", func() {
		e.RTTDS, e.RTTStats = groundtruth.BuildRTT(ctx, w, e.Fleet, e.Measurements, cfg.RTT)
	})
	stage("groundtruth.merge", func() { e.GT = groundtruth.Merge(e.DNS, e.RTTDS) })
	stage("core.targets", func() { e.Targets = core.TargetsFromDataset(w, e.GT) })
	stage("netsim.evolve", func() {
		e.Evo = w.Evolve(rand.New(rand.NewSource(cfg.EvolutionSeed)), netsim.DefaultEvolutionParams())
	})
	stage("groundtruth.build_1ms", func() {
		oneMsCfg := groundtruth.RTTConfig{ThresholdMs: 1.0, CentroidKm: cfg.RTT.CentroidKm, NearbyMaxKm: 200}
		base, _ := groundtruth.BuildRTT(ctx, w, fleet2, ms2, oneMsCfg)
		e.OneMs = groundtruth.Build1ms(w, base, e.Evo, 10, 0.7, cfg.EvolutionSeed+1)
	})
	stage("vendors.build", func() {
		e.Feed = vendors.BuildFeed(w, vendors.DefaultFeedConfig())
		in := vendors.Inputs{World: w, Feed: e.Feed, Zone: e.Zone, Decoder: e.Dec}
		for _, p := range vendors.AllParams() {
			var db *geodb.DB
			if db, err = vendors.Build(in, p); err != nil {
				return
			}
			e.DBs = append(e.DBs, db)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return e, len(ms2), nil
}

// tracedRepro traces the repro pipeline at the default scale. It times
// experiments.NewEnv untraced (the reference), then runs the serial
// composition untraced and traced; the two compositions differ only by
// the spans, so their difference is the tracing overhead.
func tracedRepro(b *bench) error {
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = b.seed

	runtime.GC()
	start := time.Now()
	ref, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		return err
	}
	newEnvWall := time.Since(start)
	var refOut bytes.Buffer
	if err := experiments.RunAll(ctx, &refOut, ref); err != nil {
		return err
	}
	refPrint := fingerprints(ref)
	ref = nil

	runtime.GC()
	var out0 bytes.Buffer
	start = time.Now()
	env0, _, err := composeEnv(ctx, nil, 0, cfg)
	if err != nil {
		return err
	}
	if err := experiments.RunAll(ctx, &out0, env0); err != nil {
		return err
	}
	untraced := time.Since(start)
	print0 := fingerprints(env0)
	env0 = nil

	runtime.GC()
	tr := newTracer()
	root := tr.start(0, "repro.pipeline")
	env, oneMs, err := composeEnv(ctx, tr, root, cfg)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	sp := tr.start(root, "experiments.run_all")
	err = experiments.RunAll(ctx, &out, env)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}

	same := print0 == refPrint && fingerprints(env) == refPrint
	b.check(same, "serial composition differs from experiments.NewEnv: %s vs %s", fingerprints(env), refPrint)
	b.check(bytes.Equal(out.Bytes(), refOut.Bytes()) && bytes.Equal(out0.Bytes(), refOut.Bytes()),
		"RunAll output over the serial composition differs from RunAll over NewEnv")
	if want, ok := goldenDigest("repro", b.seed); ok {
		b.check(digest(refOut.Bytes()) == want, "RunAll output digest differs from the golden routergeo stdout digest")
	}

	spans := tr.closed()
	self := selfByName(spans)
	fmt.Println("repro layers (one serial pipeline; self time per stage):")
	var serial time.Duration
	for _, name := range reproStages {
		serial += self[name]
	}
	for _, name := range append(append([]string(nil), reproStages...), "experiments.run_all") {
		b.layer(name+"_ms", msOf(self[name]), "ms")
	}
	var ranges int
	for _, db := range env.DBs {
		ranges += db.Len()
	}
	b.layer("netsim.interfaces", float64(env.W.NumInterfaces()), "count")
	b.layer("ark.addresses", float64(len(env.ArkAddrs)), "count")
	b.layer("atlas.measurements", float64(len(env.Measurements)+oneMs), "count")
	b.layer("groundtruth.addresses", float64(env.GT.Len()), "count")
	b.layer("vendors.ranges", float64(ranges), "count")
	b.layer("env.overlap_ratio", float64(serial)/float64(newEnvWall), "ratio")
	b.layer("repro.uncovered_ms", msOf(self["repro.pipeline"]), "ms")
	b.layer("repro.trace_overhead_ms", msOf(spanNamed(spans, "repro.pipeline").dur()-untraced), "ms")
	fmt.Printf("  (NewEnv untraced %.1f ms; serial stages %.1f ms; %d databases and %d targets match NewEnv: %v)\n",
		msOf(newEnvWall), msOf(serial), len(env.DBs), len(env.Targets), same)
	return b.saveTrace(tr, "repro")
}

// tracedDrift traces one drift pass over the 2000-AS environment: the
// program's own pass (untraced reference), then composePass untraced
// and traced. All three tables must be byte-identical.
func tracedDrift(b *bench) error {
	ctx := context.Background()
	runtime.GC()
	env, err := newDriftEnv(ctx, b.seed)
	if err != nil {
		return err
	}
	var ref, plain, traced bytes.Buffer
	if err := driftPass(ctx, &ref, env); err != nil {
		return err
	}
	start := time.Now()
	if err := composePass(ctx, nil, 0, &plain, env); err != nil {
		return err
	}
	untraced := time.Since(start)
	tr := newTracer()
	root := tr.start(0, "drift.pass")
	err = composePass(ctx, tr, root, &traced, env)
	tr.end(root)
	if err != nil {
		return err
	}
	b.check(bytes.Equal(plain.Bytes(), ref.Bytes()) && bytes.Equal(traced.Bytes(), ref.Bytes()),
		"composed drift pass table differs from experiments.Longitudinal's")
	if want, ok := goldenDigest("drift", b.seed); ok {
		b.check(digest(ref.Bytes()) == want, "drift table digest differs from the golden digest")
	}

	spans := tr.closed()
	self := selfByName(spans)
	fmt.Printf("drift layers (one %d-epoch pass, epochs serial):\n", driftEpochs)
	for _, name := range []string{"vendors.build_at", "snapshot.compare", "core.measure_accuracy", "core.country_agreement", "netsim.targets_at"} {
		b.layer(name+"_ms", msOf(self[name]), "ms")
	}
	b.layer("drift.uncovered_ms", msOf(self["drift.pass"]+self["drift.epoch"]), "ms")
	b.layer("drift.trace_overhead_ms", msOf(spanNamed(spans, "drift.pass").dur()-untraced), "ms")
	return b.saveTrace(tr, "drift")
}

// serverOptions mirrors how geoserve configures its handler.
func serverOptions() []httpapi.ServerOption {
	return []httpapi.ServerOption{
		httpapi.WithMaxBatch(httpapi.DefaultMaxBatch),
		httpapi.WithRequestTimeout(httpapi.DefaultRequestTimeout),
		httpapi.WithLogger(obs.NewLogger(io.Discard, slog.LevelWarn, "text")),
	}
}

// tracedServe traces the serving layers over the seed's published
// snapshots: snapshot open and generation swap in process, the batch
// lookup kernel, then for each serve mix the in-process handler on the
// workload's own bodies and a short live closed loop against geoserve.
func tracedServe(b *bench) error {
	dir, err := b.workDir("traced-serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := b.publish(dir)
	if err != nil {
		return err
	}
	defer p.close()
	tr := newTracer()
	fmt.Println("serve layers:")

	var opens, swaps []float64
	h := httpapi.NewHandler(p.list(), serverOptions()...)
	for i := 0; i < 5; i++ {
		sp := tr.start(0, "snapshot.open")
		start := time.Now()
		dbs, closers, err := openSet(p.paths)
		opens = append(opens, msOf(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start(0, "httpapi.swap")
		start = time.Now()
		gen := h.Swap(dbs, closers...)
		swaps = append(swaps, msOf(time.Since(start)))
		tr.end(sp)
		b.check(gen == p.gen, "in-process swap produced generation %s, published set is %s", gen, p.gen)
	}
	b.layer("snapshot.open_ms", median(opens), "ms")
	b.layer("httpapi.swap_ms", median(swaps), "ms")

	bulk, err := makeBodies(p, bulkShape, b.seed)
	if err != nil {
		return err
	}
	var sc ipx.BatchScratch
	idx := make([]int32, bulkShape.batch)
	var perAddr []float64
	for rep := 0; rep < 5; rep++ {
		for _, body := range bulk {
			start := time.Now()
			p.dbs[body.db].LookupIndexBatch(body.addrs, idx, &sc)
			perAddr = append(perAddr, float64(time.Since(start))/float64(len(body.addrs)))
		}
	}
	b.layer("geodb.lookup_batch_ns_per_addr", median(perAddr), "ns")

	for _, sh := range []struct {
		shape  serveShape
		prefix string
		inproc int
	}{
		{bulkShape, "bulk.", 512},
		{churnShape, "churn.", 16384},
	} {
		if err := tracedShape(b, tr, p, sh.shape, sh.prefix, sh.inproc, 2*time.Second); err != nil {
			return err
		}
	}
	return b.saveTrace(tr, "serve")
}

func (p *published) list() []*geodb.DB {
	out := make([]*geodb.DB, 0, len(p.names))
	for _, n := range p.names {
		out = append(out, p.dbs[n])
	}
	return out
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}

// bodyReader makes a resettable request body without allocating per
// request, so allocation counts are the handler's alone.
type bodyReader struct{ *bytes.Reader }

func (bodyReader) Close() error { return nil }

// tracedShape measures one serve mix's layers: n in-process requests
// through Handler.ServeHTTP (untraced for time and allocations, then
// traced with one span per request id), then a live closed loop of
// about live against a fresh geoserve, traced per request.
func tracedShape(b *bench, tr *tracer, p *published, shape serveShape, prefix string, n int, live time.Duration) error {
	bodies, err := makeBodies(p, shape, b.seed)
	if err != nil {
		return err
	}
	chk := newChecker(p, bodies)
	h := httpapi.NewHandler(p.list(), serverOptions()...)
	w := &memWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(bodies))
	rdrs := make([]*bytes.Reader, len(bodies))
	for i, body := range bodies {
		rdrs[i] = bytes.NewReader(body.raw)
		reqs[i], err = http.NewRequest(http.MethodPost, "http://perfbench/v2/lookup", nil)
		if err != nil {
			return err
		}
		reqs[i].Header.Set("Content-Type", "application/json")
		reqs[i].ContentLength = int64(len(body.raw))
	}
	serve := func(i int) {
		clear(w.h)
		w.code = 0
		w.buf.Reset()
		rdrs[i].Reset(bodies[i].raw)
		reqs[i].Body = bodyReader{rdrs[i]}
		h.ServeHTTP(w, reqs[i])
	}
	verify := func(i int) {
		_, err := chk.verify(i, w.buf.Bytes())
		ok := err == nil && w.code == http.StatusOK && w.h.Get(httpapi.GenerationHeader) == p.gen
		b.check(ok, "in-process %s answer to body %d: status %d, generation %q: %v", shape.name, i, w.code, w.h.Get(httpapi.GenerationHeader), err)
	}
	for i := range bodies {
		serve(i)
		verify(i)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for k := 0; k < n; k++ {
		serve(k % len(bodies))
	}
	untraced := time.Since(start)
	runtime.ReadMemStats(&m1)

	name := prefix + "httpapi.serve"
	start = time.Now()
	for k := 0; k < n; k++ {
		id := tr.startReq(0, name, int64(k+1))
		serve(k % len(bodies))
		tr.end(id)
	}
	traced := time.Since(start)
	verify((n - 1) % len(bodies))
	handler := median(durationsMs(durationsNamed(tr.closed(), name))) * 1000

	s, _, err := b.startServer(p.dir, shape.reloadEvery > 0)
	if err != nil {
		return err
	}
	b.load(s, chk, shape, time.Now().Add(warmup), int64(len(bodies)), nil, nil)
	gc0, err := s.gcCycles()
	if err != nil {
		_ = s.stop()
		return err
	}
	c0 := cpuTime()
	st := b.load(s, chk, shape, time.Now().Add(live), 0, tr, nil)
	clientCPU := cpuTime() - c0
	gc1, err := s.gcCycles()
	stopErr := s.stop()
	b.check(stopErr == nil, "%v", stopErr)
	if err != nil {
		return err
	}
	if len(st.lat) == 0 || st.lookups == 0 {
		return errNoSamples
	}
	e2e := median(durationsMs(st.lat)) * 1000

	b.layer(prefix+"httpapi.handler_us", handler, "us")
	b.layer(prefix+"httpapi.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(n), "allocs")
	b.layer(prefix+"net.transport_us", e2e-handler, "us")
	b.layer(prefix+"server.gc_per_kreq", 1000*(gc1-gc0)/float64(st.requests), "gc/kreq")
	b.layer(prefix+"client.cpu_us_per_klookup", 1000*usOf(clientCPU)/float64(st.lookups), "us")
	b.layer(prefix+"httpapi.hit_ratio", float64(st.found)/float64(st.lookups), "ratio")
	b.layer(prefix+"trace_overhead_us", usOf(traced-untraced)/float64(n), "us")
	fmt.Printf("  (%s: %d in-process requests; live e2e p50 %.1f us over %d requests)\n", shape.name, n, e2e, len(st.lat))
	return nil
}
