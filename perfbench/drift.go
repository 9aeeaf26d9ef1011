package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/stats"
)

// The drift workload: a 2000-AS world (about twice the default) and
// longitudinal passes of driftEpochs epochs, driftInterval months apart.
const (
	driftASes     = 2000
	driftEpochs   = 8
	driftInterval = 4.0
	driftSetups   = 3
)

func driftConfig(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = seed
	cfg.World.ASes = driftASes
	return cfg
}

func newDriftEnv(ctx context.Context, seed int64) (*experiments.Env, error) {
	return experiments.NewEnv(ctx, driftConfig(seed))
}

// driftPass is one untraced pass: the program's own drift sweep.
func driftPass(ctx context.Context, w io.Writer, env *experiments.Env) error {
	return experiments.Longitudinal(ctx, w, env, driftEpochs, driftInterval)
}

// cpuTime is this process's user+system CPU so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in
// megabytes; pid "self" reads this process.
func procStatusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// fingerprints identifies an environment's vendor databases and target
// set, for comparing two builds of the same seed.
func fingerprints(env *experiments.Env) string {
	var sb strings.Builder
	for _, db := range env.DBs {
		fmt.Fprintf(&sb, "%s=%016x ", db.Name(), db.Fingerprint())
	}
	fmt.Fprintf(&sb, "targets=%d", len(env.Targets))
	return sb.String()
}

// runDrift is the longitudinal workload, in process: set-up builds the
// environment (experiments.NewEnv at 2000 ASes) driftSetups times, and
// the timed phase repeats experiments.Longitudinal passes over the last
// build. Every build must produce the same databases, and every pass's
// table must match the seed's golden digest (or, without one, the
// warm-up pass's).
func runDrift(b *bench) error {
	ctx := context.Background()
	var setups []float64
	var env *experiments.Env
	var firstPrint string
	for i := 0; i < driftSetups; i++ {
		env = nil
		runtime.GC() // the previous build is garbage; do not time its collection
		start := time.Now()
		e, err := newDriftEnv(ctx, b.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		env = e
		fp := fingerprints(env)
		if i == 0 {
			firstPrint = fp
		}
		b.tally.record(fp == firstPrint)
		if fp != firstPrint {
			b.problem("NewEnv build %d of seed %d differs from build 0: %s vs %s", i, b.seed, fp, firstPrint)
		}
	}

	runtime.GC() // leave the set-up's garbage out of the passes

	want := newExpectOutput("drift", b.seed)
	var table bytes.Buffer
	pass := func() (wall, cpu time.Duration, ok bool) {
		table.Reset()
		c0, start := cpuTime(), time.Now()
		err := driftPass(ctx, &table, env)
		wall, cpu = time.Since(start), cpuTime()-c0
		ok = err == nil && want.check(table.Bytes())
		b.tally.record(ok)
		switch {
		case err != nil:
			b.problem("drift pass: %v", err)
		case !ok:
			b.problem("drift table digest %s differs from the %s", digest(table.Bytes()), want.source())
		}
		return wall, cpu, ok
	}
	pass() // warm-up

	var walls, cpus []float64
	deadline := time.Now().Add(b.seconds)
	for attempts := 0; attempts < minTimedOps || time.Now().Before(deadline); attempts++ {
		wall, cpu, ok := pass()
		if ok {
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
		}
	}
	if len(walls) == 0 {
		return errNoSamples
	}
	peak, err := procStatusMB("self", "VmHWM")
	if err != nil {
		return err
	}

	b.report("setup_s", median(setups), "s", len(setups))
	b.report("sweep_s", median(walls), "s", len(walls))
	b.report("cpu_s", median(cpus), "s", len(cpus))
	b.report("peak_rss_mb", peak, "MB", 1)
	fmt.Printf("  output check: drift table digest %.16s… against the %s\n", want.want, want.source())

	b.setMetric("setup_s", median(setups), "s")
	b.setMetric("latency_p50_ms", 1000*median(walls), "ms")
	b.setMetric("cpu_us_per_item", 1e6*median(cpus)/driftEpochs, "us")
	b.setMetric("peak_rss_mb", peak, "MB")
	return nil
}

// composePass is experiments.Longitudinal rebuilt from the modules'
// public functions, epochs in order, with a span around every call into
// a module. Its table is byte-identical to the program's own pass; the
// traced run checks that.
func composePass(ctx context.Context, tr *tracer, root int, w io.Writer, env *experiments.Env) error {
	fmt.Fprintf(w, "longitudinal drift sweep: %d epochs, %.1f months apart (world seed %d, evolution seed %d)\n",
		driftEpochs, driftInterval, env.Cfg.World.Seed, env.Cfg.EvolutionSeed)
	fmt.Fprintf(w, "%-5s %-7s %-18s %9s %9s %9s %9s %7s %7s\n",
		"epoch", "months", "db", "ctry-cov", "ctry-acc", "city-cov", "city-acc", "med-km", "moved")
	for k := 0; k < driftEpochs; k++ {
		ep := tr.start(root, "drift.epoch")
		months := float64(k) * driftInterval
		dbs := env.DBs
		if k > 0 {
			sp := tr.start(ep, "vendors.build_at")
			var err error
			dbs, err = env.BuildDBsAt(ctx, months)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := tr.start(ep, "netsim.targets_at")
		targets := targetsAt(env, months)
		tr.end(sp)

		providers := make([]geodb.Provider, len(dbs))
		for j, db := range dbs {
			providers[j] = db
		}
		for j, db := range dbs {
			sp := tr.start(ep, "core.measure_accuracy")
			acc := core.MeasureAccuracy(ctx, db, targets)
			tr.end(sp)
			med := 0.0
			if acc.ErrorCDF != nil && acc.ErrorCDF.N() > 0 {
				med = acc.ErrorCDF.Quantile(0.5)
			}
			moved := "-"
			if k > 0 {
				sp := tr.start(ep, "snapshot.compare")
				d := snapshot.Compare(env.DBs[j], db)
				tr.end(sp)
				if denom := d.MovedAddrs + d.UnchangedAddrs + d.RemovedAddrs; denom > 0 {
					moved = stats.Pct(float64(d.MovedAddrs) / float64(denom))
				}
			}
			fmt.Fprintf(w, "%-5d %-7.1f %-18s %9s %9s %9s %9s %7.0f %7s\n",
				k, months, db.Name(),
				stats.Pct(acc.CountryCoverage()), stats.Pct(acc.CountryAccuracy()),
				stats.Pct(acc.CityCoverage()), stats.Pct(acc.CityAccuracy()),
				med, moved)
		}
		sp = tr.start(ep, "core.country_agreement")
		agree, total := core.CountryAgreementAll(ctx, providers, env.ArkAddrs)
		tr.end(sp)
		fmt.Fprintf(w, "%-5d %-7.1f %-18s all-db country agreement %s (%d of %d)\n",
			k, months, "(consistency)", stats.Pct(stats.Fraction(agree, total)), agree, total)
		tr.end(ep)
	}
	return nil
}

// targetsAt re-grounds the evaluation targets at a churn horizon the way
// the drift sweep does: an interface that has moved by then is scored
// against its new location.
func targetsAt(env *experiments.Env, months float64) []core.Target {
	if months == 0 {
		return env.Targets
	}
	out := make([]core.Target, len(env.Targets))
	copy(out, env.Targets)
	for i := range out {
		id, ok := env.W.IfaceByAddr(out[i].Addr)
		if !ok || !env.Evo.Moved(id, months) {
			continue
		}
		out[i].Truth = env.Evo.CoordAt(id, months)
		out[i].TruthVec = out[i].Truth.Vec()
		out[i].Country = env.Evo.CityAt(id, months).Country
	}
	return out
}
