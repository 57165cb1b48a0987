// Command bench is the repository's benchmark: it boots the shipped
// troutd binary on loopback, drives it over real sockets with seeded
// workloads at shallow and deep queue depth, checks every answer, and
// reports end-to-end metrics; a second, traced run times the calls into
// each layer in process and prints the latency ledger. See README.md.
//
// Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload predict_deep --seed 1 --seconds 10 --trace 0   one run, result as the last line
//	bash bench/run.sh -seed 1                                                   all workloads, both passes
//	bash bench/run.sh -aa 2                                                     A/A: the untraced set twice, spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print its result as the last line (default: all of them)")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 10, "measured seconds per run: closed loop; with -trace 1 half closed loop, half paced")
		traced  = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics over sockets, 1 = per-layer metrics with span recording")
		aa      = flag.Int("aa", 0, "run the untraced set this many times on the same code and compare the spreads with the bounds")
		quick   = flag.Bool("quick", false, "smoke pass: tiny inputs, in-process listener, sub-second phases")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *aa, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, aa int, quick bool) error {
	if _, err := os.Stat("cmd/troutd"); err != nil {
		return fmt.Errorf("run from the repository root (bash bench/run.sh): %w", err)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg := newConfig(seed, seconds, quick)
	defer os.RemoveAll(cfg.workDir())
	if !quick {
		if cfg.daemonBin, cfg.buildSecs, err = buildDaemon(cfg.buildDir); err != nil {
			return err
		}
	}

	if name != "" {
		wl, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runOne(cfg, wl, traced == 1)
		if err != nil {
			return err
		}
		printResult(res)
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %s", wl.name, strings.Join(res.Invalid, "; "))
		}
		return nil
	}

	if aa > 0 {
		return runAA(cfg, spec, aa)
	}
	var all []*result
	for _, wl := range workloads {
		for _, tr := range []bool{false, true} {
			res, err := runOne(cfg, wl, tr)
			if err != nil {
				return err
			}
			printResult(res)
			all = append(all, res)
		}
	}
	if err := writeResults(cfg, all); err != nil {
		return err
	}
	if err := checkSeparation(all); err != nil {
		return err
	}
	for _, res := range all {
		if !res.Correct {
			return fmt.Errorf("%s: %s", res.Workload, strings.Join(res.Invalid, "; "))
		}
	}
	return nil
}

func newConfig(seed int64, seconds float64, quick bool) *runConfig {
	cfg := &runConfig{
		seed: seed, seconds: seconds, size: fullSizing,
		buildDir: ".bench_build", outDir: filepath.Join("bench", "out"),
		conns: 2, setups: 3, samples: 1000,
	}
	if runtime.NumCPU() == 1 {
		cfg.conns = 1
	}
	if quick {
		cfg.size, cfg.setups, cfg.samples = quickSizing, 1, 32
	}
	return cfg
}

func runOne(cfg *runConfig, wl workloadSpec, traced bool) (*result, error) {
	if traced {
		return runTraced(cfg, wl)
	}
	return runUntraced(cfg, wl)
}

// benchSpec is BENCHMARK.json: the contract the output is checked against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit string
	Bound      float64
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printResult(res *result) {
	pass := "end to end, untraced"
	if res.Traced {
		pass = "per layer, traced"
	}
	fmt.Printf("\n== %s  seed %d  (%s)  attempted %d  failed %d\n", res.Workload, res.Seed, pass, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.4f %-6s", n, m.Value, m.Unit)
		if k, ok := res.Samples[n]; ok {
			fmt.Printf(" n=%d", k)
		}
		fmt.Println()
	}
	if len(res.Ledger) > 0 {
		fmt.Printf("  ledger: p50 of %.1f us =\n", res.Metrics["loadgen.p50_us"].Value)
		for _, t := range res.Ledger {
			fmt.Printf("    %-32s %12.2f us  %5.1f%%\n", t.Name, t.Us, 100*t.Share)
		}
	}
	for _, why := range res.Invalid {
		fmt.Printf("  INVALID: %s\n", why)
	}
}

func writeResults(cfg *runConfig, all []*result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Connections int       `json:"connections"`
		Seconds     float64   `json:"seconds"`
		Runs        []*result `json:"runs"`
	}{cfg.conns, cfg.seconds, all}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(b, '\n'), 0o644)
}

// checkSeparation holds the workloads to what they were built to
// separate: depth shows in predict_deep and not in predict_shallow, the
// featurizer dominates only at depth, and the snapshot cache is hit on
// static state and missed on live state.
func checkSeparation(all []*result) error {
	get := func(workload string, traced bool, name string) float64 {
		for _, r := range all {
			if r.Workload == workload && r.Traced == traced {
				return r.Metrics[name].Value
			}
		}
		return 0
	}
	shallow, deep := get("predict_shallow", false, "p50_us"), get("predict_deep", false, "p50_us")
	if deep < 5*shallow {
		return fmt.Errorf("separation: predict_deep p50 %.0f us is under 5x predict_shallow's %.0f us", deep, shallow)
	}
	deepShare := get("predict_deep", true, "features.snapshot_row_us") / get("predict_deep", true, "loadgen.p50_us")
	shallowShare := get("predict_shallow", true, "features.snapshot_row_us") / get("predict_shallow", true, "loadgen.p50_us")
	if deepShare <= 0.5 || shallowShare >= deepShare/3 {
		return fmt.Errorf("separation: features.snapshot_row is %.0f%% of p50 on predict_deep and %.0f%% on predict_shallow", 100*deepShare, 100*shallowShare)
	}
	if hit := get("predict_deep", true, "troutd.cache_hit_frac"); hit <= 0.99 {
		return fmt.Errorf("separation: predict_deep hits the snapshot cache on %.3f of lookups", hit)
	}
	if hit := get("live_mix", true, "troutd.cache_hit_frac"); hit >= 0.05 {
		return fmt.Errorf("separation: live_mix hits the snapshot cache on %.3f of lookups", hit)
	}
	return nil
}

// runAA runs the untraced set n times on the same code and prints, per
// metric and workload, the median, the quartiles and the largest pairwise
// relative difference beside the bound. Any difference over its bound is
// an error: the benchmark could not tell such a change from noise.
func runAA(cfg *runConfig, spec *benchSpec, n int) error {
	values := map[string][]float64{} // "workload metric" → one value per set
	for k := 0; k < n; k++ {
		for _, wl := range workloads {
			res, err := runUntraced(cfg, wl)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %s", wl.name, strings.Join(res.Invalid, "; "))
			}
			for name, m := range res.Metrics {
				key := wl.name + " " + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	fmt.Printf("\nA/A over %d sets, seed %d\n%-16s %-14s %12s %12s %12s %9s %7s\n", n, cfg.seed, "workload", "metric", "q1", "median", "q3", "max diff", "bound")
	var over []string
	for _, wl := range workloads {
		for _, ms := range spec.EndToEnd {
			v := sortedCopy(values[wl.name+" "+ms.Name])
			diff := (v[len(v)-1] - v[0]) / v[0]
			flag := ""
			if diff > ms.Bound {
				flag = "  OVER"
				over = append(over, wl.name+" "+ms.Name)
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %12.4f %8.1f%% %6.0f%%%s\n", wl.name, ms.Name,
				quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75), 100*diff, 100*ms.Bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference over the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
