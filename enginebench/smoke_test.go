package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type layerFile struct {
	Layers []struct {
		Layer     string
		Metrics   []string
		Moves     []string
		Workloads []string
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each run passes its output checks and emits every metric
// BENCHMARK.json names with its unit, and that every layer-map entry
// names emitted metrics.
func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("smoke run: go test -short")
	}
	var bf benchFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var lf layerFile
	readJSON(t, "layers.json", &lf)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	emitted := map[string]map[string]bool{} // workload -> metric names printed
	for _, wl := range bf.Workloads {
		emitted[wl.Name] = map[string]bool{}
		for _, traced := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.5", "--trace", traced, "--workdir", t.TempDir()}, &out, &errs)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", wl.Name, traced, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]jsonValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", wl.Name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced == "1" {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result line, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "metric" {
					emitted[wl.Name][f[1]] = true
				}
			}
		}
	}
	for _, l := range lf.Layers {
		if len(l.Metrics) == 0 || len(l.Moves) == 0 || len(l.Workloads) == 0 {
			t.Errorf("layer %q: incomplete entry", l.Layer)
		}
		for _, wl := range l.Workloads {
			if _, ok := emitted[wl]; !ok {
				t.Errorf("layer %q: unknown workload %q", l.Layer, wl)
				continue
			}
			for _, m := range append(append([]string(nil), l.Metrics...), l.Moves...) {
				if !emitted[wl][m] {
					t.Errorf("layer %q: metric %s is not emitted on %s", l.Layer, m, wl)
				}
			}
		}
	}
}
