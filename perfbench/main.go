// Command perfbench is the repository's end-to-end benchmark: it runs
// one named workload against programs built from this checkout, checks
// their outputs, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds the
// programs first:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// is the separate traced run: it times calls into each module's public
// functions from this package and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(*bench) error{
	"repro":       runRepro,
	"drift":       runDrift,
	"serve-bulk":  func(b *bench) error { return runServe(b, bulkShape) },
	"serve-churn": func(b *bench) error { return runServe(b, churnShape) },
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"repro", "drift", "serve-bulk", "serve-churn"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: where the programs and scratch space
// are, the workload inputs, the closed-loop tally, the metrics the
// result carries and any correctness failure seen.
type bench struct {
	root, bin, work string
	seed            int64
	seconds         time.Duration
	nproc           int

	workload string
	tally    tally
	metrics  map[string]metric

	mu       sync.Mutex // guards problems; load connections report concurrently
	problems []string
}

// setMetric records a metric for the result line.
func (b *bench) setMetric(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// report prints one human-readable metric line with its sample count.
func (b *bench) report(name string, v float64, unit string, n int) {
	fmt.Printf("  %-44s %14.6g %-10s n=%d\n", b.workload+"."+name, v, unit, n)
}

// maxPrinted caps how many check failures are printed.
const maxPrinted = 10

// problem records a correctness failure; the run then reports
// correct=false.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.problems = append(b.problems, msg)
	n := len(b.problems)
	b.mu.Unlock()
	if n <= maxPrinted {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

// childEnv is the environment every program under test runs with: the
// caller's, with GOMAXPROCS pinned to the CPU count so it is recorded
// rather than assumed.
func (b *bench) childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", b.nproc))
}

// workDir returns a fresh scratch directory for this run.
func (b *bench) workDir(name string) (string, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("%s-seed%d-%d", name, b.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: repro, drift, serve-bulk, serve-churn, or all")
		seed     = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds  = flag.Int("seconds", 10, "how long the timed phase of a run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced run and its per-layer metrics")
		root     = flag.String("root", ".", "repository checkout the programs were built from")
		bin      = flag.String("bin", "", "directory holding the routergeo, geoserve and geosnap binaries")
		work     = flag.String("work", "", "scratch directory (inside the checkout)")
		record   = flag.Int("record-golden", 0, "instead of a run, print golden output digests for seeds 1..N as JSON")
	)
	flag.Parse()
	if *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -work are required; run through perfbench/run.sh")
		os.Exit(2)
	}
	b := &bench{
		root: *root, bin: *bin, work: *work,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		workload: *workload,
		metrics:  map[string]metric{},
	}
	if *record > 0 {
		if err := recordGolden(b, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			*workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}

	printRecord(b, *traced)
	steal0, total0 := hostSteal()
	res := result{Metrics: map[string]metric{}}
	for _, name := range names {
		b.workload = name
		b.metrics = map[string]metric{}
		var err error
		if *traced == 1 {
			fmt.Printf("traced run for %s (per-layer metrics of every workload)\n", name)
			err = runTraced(b)
		} else {
			fmt.Printf("workload %s\n", name)
			err = workloads[name](b)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", name+":", err)
			os.Exit(1)
		}
		for k, v := range b.metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		fmt.Printf("# host steal: %.1f%% of CPU time during this run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.Attempted = b.tally.attempted.Load()
	res.Failed = b.tally.failed.Load()
	res.Correct = len(b.problems) == 0 && res.Failed == 0 && res.Attempted > 0
	fmt.Printf("error_rate = %.6g (%d failed of %d attempted)\n", b.tally.errorRate(), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printRecord prints what the numbers depend on: CPU model, CPU count,
// GOMAXPROCS of the load generator (this process) and of the programs
// under test, Go version, commit and seed.
func printRecord(b *bench, traced int) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n",
		b.workload, b.seed, int(b.seconds/time.Second), traced)
	fmt.Printf("# cpu=%q nproc=%d gomaxprocs_generator=%d gomaxprocs_server=%d go=%s commit=%s\n",
		cpuModel(), b.nproc, runtime.GOMAXPROCS(0), b.nproc, runtime.Version(), commitOf(b.root))
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor gave this VM's CPUs to
// someone else; it explains run-to-run spread the program did not cause.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source the programs were built from: the git commit
// when the checkout is a repository, otherwise a digest of every Go
// source and module file in it.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// expectOutput checks successive outputs of one deterministic operation:
// each must equal the golden digest recorded for the seed, or, for a
// seed without one, the first output seen.
type expectOutput struct {
	want   string
	golden bool
}

func newExpectOutput(kind string, seed int64) *expectOutput {
	if d, ok := goldenDigest(kind, seed); ok {
		return &expectOutput{want: d, golden: true}
	}
	return &expectOutput{}
}

func (e *expectOutput) check(out []byte) bool {
	d := digest(out)
	if e.want == "" {
		e.want = d
		return true
	}
	return d == e.want
}

func (e *expectOutput) source() string {
	if e.golden {
		return "golden digest for this seed"
	}
	return "first pass (no golden digest recorded for this seed)"
}

// errNoSamples reports a timed phase that finished nothing.
var errNoSamples = errors.New("timed phase completed no operation")
