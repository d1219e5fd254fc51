package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySizes runs every workload's code on inputs small enough for a unit
// test.
var tinySizes = sizes{
	fmriScale: 0.05, fmriRank: 3, jobSweeps: 2,
	http: []int{8, 7, 6}, httpRank: 4, httpSets: 4,
	small: []int{6, 5, 4}, sparse: []int{20, 15, 10}, large: []int{12, 10, 8}, cp: []int{6, 5, 4},
	mixRank: 4, mixSets: 2, density: 0.05, cpRank: 2, cpSweeps: 2,
	replay: 2 * time.Millisecond,
}

func tinyRun(t *testing.T, w *workloadDef, trace bool, tamper func(int, []float64)) *result {
	t.Helper()
	res, err := runWorkload(config{
		workload: w,
		seed:     7,
		window:   200 * time.Millisecond,
		trace:    trace,
		traceDir: t.TempDir(),
		sizes:    tinySizes,
		out:      io.Discard,
		tamper:   tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, d.Name, v, d.Unit)
				}
			}
			if !trace && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v, want 1", w.name, res.Metrics["success_ratio"].Value)
			}
		}
	}
}

func TestCorruptedResultIsCountedFailed(t *testing.T) {
	for _, w := range workloads {
		var once sync.Once
		tamper := func(_ int, vals []float64) {
			once.Do(func() { vals[0] += 1 })
		}
		res := tinyRun(t, w, false, tamper)
		// A cp-fmri job's sweeps fail together; elsewhere one request fails.
		want := 1
		if w.name == "cp-fmri" {
			want = tinySizes.jobSweeps
		}
		if res.Failed != want || res.Correct {
			t.Errorf("%s: failed=%d correct=%v, want failed=%d correct=false", w.name, res.Failed, res.Correct, want)
		}
		got := res.Metrics["success_ratio"].Value
		if wantRatio := 1 - float64(want)/float64(res.Attempted); got != wantRatio {
			t.Errorf("%s: success_ratio %v, want %v", w.name, got, wantRatio)
		}
	}
}

func TestRunPrintsResultLastAndRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatalf("unknown workload: exit 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %q", out.String())
	}
	if code := run([]string{"--workload", "cp-fmri", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Fatalf("--trace 2: exit 0")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("cpd.ALS", at(0), at(100), 0, 1)
	tr.add("cpd.sweep", at(10), at(40), 1, 1)
	tr.add("cpd.sweep", at(30), at(60), 1, 1)        // overlaps the first: union is 10..60
	tr.add("core.ComputeInto", at(70), at(90), 1, 1) // ALS self: 100 - 50 - 20
	got := tr.selfTimes()
	want := []layerTime{
		{layer: "cpd", spans: 3, total: 160 * time.Millisecond, self: 90 * time.Millisecond},
		{layer: "core", spans: 1, total: 20 * time.Millisecond, self: 20 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if p50, p90 := percentile(ds, 0.5), percentile(ds, 0.9); p50 != 50 || p90 != 90 {
		t.Fatalf("p50 %v p90 %v, want 50 and 90", p50, p90)
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatalf("empty percentile not 0")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []metricDef         `json:"end_to_end"`
		PerLayer   []metricDef         `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash perfbench/run.sh" || !reflect.DeepEqual(doc.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	var names []map[string]string
	for _, w := range workloads {
		names = append(names, map[string]string{"name": w.name, "why": w.why})
	}
	if !reflect.DeepEqual(doc.Workloads, names) {
		t.Errorf("workloads %v, want %v", doc.Workloads, names)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end %+v, want %+v", doc.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer %+v, want %+v", doc.PerLayer, strip(perLayer))
	}
}
