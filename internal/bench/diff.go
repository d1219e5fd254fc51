package bench

// Benchmark-artifact diffing. CI records every run's benchmarks as
// `go test -json` output (BENCH_<sha>.json artifacts); Diff parses two
// such files and renders a per-(benchmark, metric) delta table, so a PR
// can compare its perf trajectory against a base artifact with one
// command instead of eyeballing two JSON streams.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the go-test-json event stream we consume:
// benchmark results arrive as "output" actions whose Output field carries
// the standard `BenchmarkName-N  iters  value unit  ...` result line.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// BenchResult is one parsed benchmark result line: the metric values per
// unit (ns/op, B/op, allocs/op, and any testing.B ReportMetric custom
// units such as small-p99-ms or GFLOP/s).
type BenchResult struct {
	Package string
	Name    string // benchmark name with the -N GOMAXPROCS suffix stripped
	Iters   int64
	Metrics map[string]float64 // unit -> value
}

// Key identifies a benchmark across artifacts: package path plus name.
func (r BenchResult) Key() string { return r.Package + "." + r.Name }

// ParseBenchJSON reads a go-test-json stream and returns every benchmark
// result line found in it, in encounter order. Lines that are not valid
// JSON events or not benchmark results are skipped, so a stream with
// interleaved build noise still parses. If the same benchmark appears
// more than once (e.g. re-run at a different benchtime), the last result
// wins — that matches how CI appends the kernel micro-benchmark pass to
// the same artifact.
func ParseBenchJSON(r io.Reader) ([]BenchResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	index := make(map[string]int)
	var out []BenchResult
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		if ev.Action != "output" {
			continue
		}
		res, ok := parseBenchLine(ev.Package, ev.Output)
		if !ok {
			continue
		}
		if i, seen := index[res.Key()]; seen {
			out[i] = res
		} else {
			index[res.Key()] = len(out)
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseBenchLine parses one textual benchmark result line of the form
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   2 allocs/op
//
// returning ok=false for anything else (PASS/ok lines, b.Log output, …).
func parseBenchLine(pkg, line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	// Name, iteration count, and at least one value+unit pair.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return BenchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := BenchResult{Package: pkg, Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return BenchResult{}, false
	}
	return res, true
}

// Diff compares two parsed artifacts and renders one row per
// (benchmark, unit) pair present in both, plus summary rows for
// benchmarks that exist on only one side. Rows are sorted by package,
// name, then unit, so the table is stable across runs.
func Diff(base, head []BenchResult) *Table {
	bi := make(map[string]BenchResult, len(base))
	for _, r := range base {
		bi[r.Key()] = r
	}
	hi := make(map[string]BenchResult, len(head))
	for _, r := range head {
		hi[r.Key()] = r
	}

	t := NewTable("benchmark delta (base -> head)", "benchmark", "unit", "base", "head", "delta")
	keys := make([]string, 0, len(hi))
	for k := range hi {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hi[k]
		b, inBase := bi[k]
		if !inBase {
			t.Add(shortKey(h), "", "", "", "new")
			continue
		}
		units := make([]string, 0, len(h.Metrics))
		for u := range h.Metrics {
			if _, ok := b.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			t.Add(shortKey(h), u, formatMetric(b.Metrics[u]), formatMetric(h.Metrics[u]),
				formatDelta(b.Metrics[u], h.Metrics[u]))
		}
	}
	gone := make([]string, 0)
	for k, b := range bi {
		if _, ok := hi[k]; !ok {
			gone = append(gone, shortKey(b))
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		t.Add(k, "", "", "", "gone")
	}
	return t
}

// shortKey renders the benchmark identity with the module-internal path
// prefix trimmed, keeping tables readable without losing uniqueness.
func shortKey(r BenchResult) string {
	pkg := r.Package
	if i := strings.Index(pkg, "internal/"); i >= 0 {
		pkg = pkg[i+len("internal/"):]
	}
	return pkg + "." + strings.TrimPrefix(r.Name, "Benchmark")
}

func formatMetric(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	case math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// formatDelta renders the head/base change as a signed percentage.
// A zero base with a zero head is flat; a zero base with a nonzero head
// has no meaningful ratio, so it is shown as the raw difference.
func formatDelta(base, head float64) string {
	if base == head {
		return "+0.0%"
	}
	if base == 0 {
		return fmt.Sprintf("%+g", head)
	}
	return fmt.Sprintf("%+.1f%%", (head-base)/base*100)
}

// DiffFiles parses two artifact files and renders their delta table.
func DiffFiles(basePath, headPath string) (*Table, error) {
	parse := func(path string) ([]BenchResult, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rs, err := ParseBenchJSON(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("%s: no benchmark results found", path)
		}
		return rs, nil
	}
	base, err := parse(basePath)
	if err != nil {
		return nil, err
	}
	head, err := parse(headPath)
	if err != nil {
		return nil, err
	}
	return Diff(base, head), nil
}
