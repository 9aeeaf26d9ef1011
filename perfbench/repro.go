package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reproStartups is how many times the repro set-up (routergeo start-up)
// is timed per run; its median is setup_s.
const reproStartups = 31

// minTimedOps is the fewest operations a timed phase completes, however
// short --seconds is.
const minTimedOps = 3

// procRun is one finished child process: its standard output, wall time
// from exec to exit, CPU time (user+system, all threads) and peak RSS.
type procRun struct {
	stdout   []byte
	wall     time.Duration
	cpu      time.Duration
	maxRSSMB float64
}

func reproArgs(seed int64) []string {
	return []string{"-seed", strconv.FormatInt(seed, 10)}
}

// execRouterGeo runs the routergeo binary in dir and waits for it.
func (b *bench) execRouterGeo(dir string, args ...string) (procRun, error) {
	cmd := exec.Command(filepath.Join(b.bin, "routergeo"), args...)
	cmd.Dir = dir
	cmd.Env = b.childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("routergeo %s: %v: %s", strings.Join(args, " "), err, lastLine(errOut.String()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return procRun{
		stdout:   out.Bytes(),
		wall:     wall,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// runRepro is the researcher's unit of truth: the real routergeo binary
// producing every paper artifact for the seed's default-scale world.
//
// Set-up is routergeo's start-up (exec to exit of `routergeo -list`:
// process start, package initialisation, flag parsing), which every run
// pays before its world build. After one untimed warm-up run, full runs
// repeat until --seconds have passed. Each run's standard output must
// match the seed's golden digest (or, without one, the warm-up's).
func runRepro(b *bench) error {
	dir, err := b.workDir("repro")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var starts []float64
	for i := 0; i < reproStartups; i++ {
		r, err := b.execRouterGeo(dir, "-list")
		ok := err == nil && bytes.Contains(r.stdout, []byte("table1"))
		b.tally.record(ok)
		if !ok {
			b.problem("routergeo -list: %v", err)
			continue
		}
		starts = append(starts, r.wall.Seconds())
	}

	want := newExpectOutput("repro", b.seed)
	run := func() (procRun, bool) {
		r, err := b.execRouterGeo(dir, reproArgs(b.seed)...)
		ok := err == nil && want.check(r.stdout)
		b.tally.record(ok)
		switch {
		case err != nil:
			b.problem("%v", err)
		case !ok:
			b.problem("routergeo stdout digest %s differs from the %s", digest(r.stdout), want.source())
		}
		return r, ok
	}
	run() // warm-up: page cache, binary, and the digest without a golden

	var walls, cpus, rss []float64
	deadline := time.Now().Add(b.seconds)
	for attempts := 0; attempts < minTimedOps || time.Now().Before(deadline); attempts++ {
		r, ok := run()
		if !ok {
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.maxRSSMB)
	}
	if len(starts) == 0 || len(walls) == 0 {
		return errNoSamples
	}

	b.report("setup_s", median(starts), "s", len(starts))
	b.report("wall_s", median(walls), "s", len(walls))
	b.report("cpu_s", median(cpus), "s", len(cpus))
	b.report("peak_rss_mb", median(rss), "MB", len(rss))
	fmt.Printf("  output check: stdout digest %.16s… against the %s\n", want.want, want.source())

	b.setMetric("setup_s", median(starts), "s")
	b.setMetric("latency_p50_ms", 1000*median(walls), "ms")
	b.setMetric("cpu_us_per_item", 1e6*median(cpus), "us")
	b.setMetric("peak_rss_mb", median(rss), "MB")
	return nil
}
