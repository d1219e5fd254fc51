package bench

import (
	"strings"
	"testing"
)

const baseJSON = `{"Action":"run","Package":"repro/internal/core","Test":"BenchmarkMTTKRP"}
{"Action":"output","Package":"repro/internal/core","Output":"BenchmarkMTTKRP-8   \t     100\t   1200 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"repro/internal/core","Output":"some b.Log line, not a result\n"}
{"Action":"output","Package":"repro/internal/serve","Output":"BenchmarkMixedAdmission-8   \t      50\t  40000 ns/op\t         0.7500 small-p99-ms\n"}
{"Action":"output","Package":"repro/internal/serve","Output":"BenchmarkRemoved-8   \t      10\t  99 ns/op\n"}
not json at all
{"Action":"pass","Package":"repro/internal/core"}
`

const headJSON = `{"Action":"output","Package":"repro/internal/core","Output":"BenchmarkMTTKRP-8   \t     100\t    600 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"repro/internal/serve","Output":"BenchmarkMixedAdmission-8   \t      50\t  40000 ns/op\t         0.9000 small-p99-ms\n"}
{"Action":"output","Package":"repro/internal/serve","Output":"BenchmarkMixedAdmission-8   \t      80\t  30000 ns/op\t         0.9000 small-p99-ms\n"}
{"Action":"output","Package":"repro/internal/tensor","Output":"BenchmarkNew-8   \t      10\t  5 ns/op\n"}
`

func TestParseBenchJSON(t *testing.T) {
	rs, err := ParseBenchJSON(strings.NewReader(baseJSON))
	if err != nil {
		t.Fatalf("ParseBenchJSON: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(rs), rs)
	}
	m := rs[0]
	if m.Name != "BenchmarkMTTKRP" || m.Package != "repro/internal/core" || m.Iters != 100 {
		t.Fatalf("first result: %+v", m)
	}
	if m.Metrics["ns/op"] != 1200 || m.Metrics["allocs/op"] != 0 {
		t.Fatalf("metrics: %+v", m.Metrics)
	}
	if rs[1].Metrics["small-p99-ms"] != 0.75 {
		t.Fatalf("custom metric: %+v", rs[1].Metrics)
	}
}

func TestParseBenchJSONLastResultWins(t *testing.T) {
	rs, err := ParseBenchJSON(strings.NewReader(headJSON))
	if err != nil {
		t.Fatalf("ParseBenchJSON: %v", err)
	}
	for _, r := range rs {
		if r.Name == "BenchmarkMixedAdmission" && r.Metrics["ns/op"] != 30000 {
			t.Fatalf("duplicate result not overwritten: %+v", r)
		}
	}
}

func TestDiff(t *testing.T) {
	base, err := ParseBenchJSON(strings.NewReader(baseJSON))
	if err != nil {
		t.Fatal(err)
	}
	head, err := ParseBenchJSON(strings.NewReader(headJSON))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Diff(base, head).Fprint(&sb)
	out := sb.String()

	for _, want := range []string{
		"core.MTTKRP", "ns/op", "-50.0%", // 1200 -> 600
		"+20.0%",                  // small-p99-ms 0.75 -> 0.9
		"tensor.New",              // head-only benchmark
		"new",                     //
		"serve.Removed",           // base-only benchmark
		"gone",                    //
		"allocs/op", "0", "+0.0%", // flat zero metric
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
}
