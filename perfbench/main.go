// Command perfbench is the repository's benchmark. It runs one named
// workload against the library, the in-process scheduler or the HTTP
// transport, checks every result against a reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {"throughput": {"value": 16.2, "unit": "1/s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cp-fmri --seed 1 --seconds 10 --trace 0
//
// The per-layer numbers come from the benchmark's own files: it times
// calls into each module's public functions and reads the counters the
// modules already export. Nothing inside the program is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/simd"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the spans of a traced run are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
		sizes:    fullSizes,
		out:      stdout,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// config is one run's settings.
type config struct {
	workload *workloadDef
	seed     int64
	window   time.Duration
	trace    bool
	traceDir string // "" writes no span file
	sizes    sizes
	out      io.Writer // human-readable report lines
	// tamper, when set, may alter a result before it is checked; tests use
	// it to show that a wrong result is counted as failed.
	tamper func(unit int, vals []float64)
}

func (c *config) printf(format string, args ...any) {
	fmt.Fprintf(c.out, format, args...)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

// window is what one measured window of a workload observed.
type window struct {
	unit      string // "sweep" or "request"
	attempted int
	failed    int // errors, refusals and wrong results
	elapsed   time.Duration
	lat       []time.Duration // succeeded units only
	class     map[string][]time.Duration
}

func (w *window) throughput() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// workload is one benchmark scenario. setup builds the inputs and starts
// what serves them (it may run several times; each call replaces the
// previous state); reference computes the expected results outside every
// timed span; measure runs one window, checking each result as it
// arrives; layers replays the workload's rungs in isolation and reads the
// counters of the last traced window.
type workload interface {
	setup(c *config) (generate time.Duration, err error)
	reference(c *config) error
	measure(c *config, d time.Duration, tr *tracer) (*window, error)
	layers(c *config, tr *tracer, r *result)
	facts(c *config)
	close()
}

type workloadDef struct {
	name string
	why  string
	new  func() workload
}

var workloads = []*workloadDef{
	{
		name: "cp-fmri",
		why:  "paper's application: cpd.ALS rank 10, t=2, on the 68x18x60x60 synthetic fMRI tensor (35 MB, far beyond L2); kernel layers do all work, serve/transport none",
		new:  func() workload { return &cpFMRI{} },
	},
	{
		name: "http-dense",
		why:  "2 closed-loop clients send 555 KiB dense MTTKRPs (48x40x36, r16, 32 factor sets) over loopback HTTP; wire decode and per-request overhead are half of p50",
		new:  func() workload { return &httpDense{} },
	},
	{
		name: "serve-mix",
		why:  "in-process scheduler with 8 requests in flight, small:sparse:large:cp = 16:4:1:1; a queue always exists, so admission, batching, fusion and the sparse kernel work",
		new:  func() workload { return &serveMix{} },
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runWorkload sets the workload up setupReps times, computes its
// references, and measures it. An untraced run measures one window and
// reports the end-to-end metrics. A traced run measures an untraced and a
// traced window of half the length each, reports the per-layer metrics,
// the tracing overhead as the gap between the two windows, and writes the
// spans out.
func runWorkload(c config) (*result, error) {
	w := c.workload.new()
	defer w.close()
	c.printf("# perfbench %s seed=%d window=%v trace=%v\n", c.workload.name, c.seed, c.window, c.trace)
	c.printf("# why: %s\n", c.workload.why)
	printHost(&c)

	var setups, gens []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		gen, err := w.setup(&c)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		gens = append(gens, gen)
	}
	w.facts(&c)
	if err := w.reference(&c); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := &result{Metrics: map[string]value{}}
	if !c.trace {
		rss := watchRSS()
		win, err := w.measure(&c, c.window, nil)
		if err != nil {
			return nil, err
		}
		peak := rss.stop()
		res.Attempted, res.Failed = win.attempted, win.failed
		res.set("setup_s", median(setups).Seconds())
		res.set("throughput", win.throughput())
		res.set("latency_p50_ms", ms(percentile(win.lat, 0.5)))
		res.set("latency_p90_ms", ms(percentile(win.lat, 0.9)))
		res.set("success_ratio", float64(win.attempted-win.failed)/float64(max(win.attempted, 1)))
		res.set("peak_rss_mib", peak)
		printWindow(&c, "window", win)
		printEndToEnd(&c, res, win)
	} else {
		base, err := w.measure(&c, c.window/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		win, err := w.measure(&c, c.window/2, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = base.attempted+win.attempted, base.failed+win.failed
		printWindow(&c, "untraced window", base)
		printWindow(&c, "traced window", win)
		for _, d := range perLayer {
			res.set(d.Name, 0)
		}
		res.set("tensor.generate_s", median(gens).Seconds())
		res.set("trace.overhead_p50_pct", 100*(ms(percentile(win.lat, 0.5))/ms(percentile(base.lat, 0.5))-1))
		res.set("trace.overhead_throughput_pct", 100*(1-win.throughput()/base.throughput()))
		w.layers(&c, tr, res)
		printLayers(&c, res)
		printSelfTimes(&c, tr.selfTimes())
		if c.traceDir != "" {
			path := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.json", c.workload.name, c.seed))
			if err := tr.write(path, c.workload.name, c.seed); err != nil {
				return nil, err
			}
			c.printf("# spans: %d written to %s\n", len(tr.spans), path)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func printHost(c *config) {
	l2, l3 := cacheSizes()
	c.printf("# host: nproc=%d GOMAXPROCS=%d simd=%s L2=%s L3=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), simd.Active().Name, l2, l3)
}

func printWindow(c *config, label string, w *window) {
	n := len(w.lat)
	c.printf("# %s: %d %ss attempted, %d failed, %.3fs, %.2f %ss/s\n",
		label, w.attempted, w.unit, w.failed, w.elapsed.Seconds(), w.throughput(), w.unit)
	c.printf("#   latency over %d %ss: p50 %.3f ms, p90 %.3f ms (%d samples beyond p90)\n",
		n, w.unit, ms(percentile(w.lat, 0.5)), ms(percentile(w.lat, 0.9)), n-int(0.9*float64(n)))
	if n < 100 {
		c.printf("#   warning: fewer than 10 samples beyond p90; lengthen the window\n")
	}
	var names []string
	for k := range w.class {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		c.printf("#   class %-6s %5d requests: p50 %.3f ms, p90 %.3f ms\n",
			k, len(w.class[k]), ms(percentile(w.class[k], 0.5)), ms(percentile(w.class[k], 0.9)))
	}
}

// printEndToEnd prints every end-to-end metric by name and unit: the
// gated ones, the failure share they carry as success_ratio, and on
// serve-mix the per-class p50s that expose a convoy.
func printEndToEnd(c *config, r *result, w *window) {
	for _, d := range endToEnd {
		c.printf("# %-16s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	c.printf("# %-16s %14.4f ratio\n", "failed_ratio", float64(w.failed)/float64(max(w.attempted, 1)))
	for _, cl := range []struct{ class, name string }{{"large", "large_p50_ms"}, {"sparse", "sparse_p50_ms"}, {"cp", "cp_job_p50_ms"}} {
		if lat, ok := w.class[cl.class]; ok {
			c.printf("# %-16s %14.4f ms\n", cl.name, ms(median(lat)))
		}
	}
}

func printLayers(c *config, r *result) {
	for _, d := range perLayer {
		v := r.Metrics[d.Name]
		c.printf("# %-32s %14.4f %-8s -> %s\n", d.Name, v.Value, v.Unit, d.Moves)
	}
}

func printSelfTimes(c *config, layers []layerTime) {
	c.printf("# self time per layer (traced window and replays):\n")
	for _, l := range layers {
		c.printf("#   %-10s %7d spans, total %10.3f ms, self %10.3f ms\n", l.layer, l.spans, ms(l.total), ms(l.self))
	}
}

// rssWatch samples the process's resident set size while a window runs.
// Set-up and the references have finished and their garbage is returned
// to the OS before it starts, so the peak is the workload's own.
type rssWatch struct {
	quit chan struct{}
	peak chan float64
}

func watchRSS() *rssWatch {
	runtime.GC()
	debug.FreeOSMemory()
	w := &rssWatch{quit: make(chan struct{}), peak: make(chan float64)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := rssMiB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMiB())
			case <-w.quit:
				w.peak <- max(peak, rssMiB())
				return
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak in MiB.
func (w *rssWatch) stop() float64 {
	close(w.quit)
	return <-w.peak
}

// rssMiB returns the current resident set size from /proc/self/statm, or
// the process's peak from getrusage where statm is unavailable.
func rssMiB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sizes holds every problem shape, so tests can run the same code on
// tiny inputs.
type sizes struct {
	fmriScale float64 // fmri.PaperParams().Scaled(fmriScale)
	fmriRank  int
	jobSweeps int // sweeps per cpd.ALS job; Tol < 0 runs every one

	http     []int // http-dense tensor; mode 1, like every request here
	httpRank int
	httpSets int // distinct factor sets, drawn round-robin

	small, sparse, large, cp []int // serve-mix classes
	mixRank                  int
	mixSets                  int // factor sets per MTTKRP class
	density                  float64
	cpRank, cpSweeps         int

	replay time.Duration // least time one layer replay measures
}

var fullSizes = sizes{
	fmriScale: 0.3, fmriRank: 10, jobSweeps: 5,
	http: []int{48, 40, 36}, httpRank: 16, httpSets: 32,
	small: []int{32, 28, 24}, sparse: []int{200, 150, 100}, large: []int{96, 80, 64}, cp: []int{40, 36, 32},
	mixRank: 16, mixSets: 4, density: 0.01, cpRank: 8, cpSweeps: 5,
	replay: 200 * time.Millisecond,
}
