package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// result is the JSON line one run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a child process of this binary, so every
// run starts from a fresh heap, and returns its result line. The child's
// report goes to this process's standard error when verbose.
func runChild(workload string, seed int64, seconds, trace int, verbose bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if verbose {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &r, nil
}

// runAll runs every workload once, one after another, and prints each
// one's report and result line.
func runAll(seed int64, seconds, trace int) error {
	for _, w := range workloadOrder {
		r, err := runChild(w, seed, seconds, trace, true)
		if err != nil {
			return err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", w, b)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySets is how many sets of runs the steadiness mode compares.
const steadySets = 2

// runSteadiness runs each workload n times in each of two sets, with a
// different seed each time, prints every end-to-end metric's median and
// quartiles per set, and compares the sets against the bounds in
// BENCHMARK.json: the spread between quartiles must stay within the
// bound, and the second set's median may be worse than the first's by no
// more than the bound. It then makes one traced run per workload to
// measure the tracing overhead.
func runSteadiness(n, seconds int, only []string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadOrder
	if len(only) > 0 {
		names = only
	}
	ok := true
	for _, w := range names {
		if _, known := workloads[w]; !known {
			return fmt.Errorf("unknown workload %q", w)
		}
		vals := make([]map[string][]float64, steadySets)
		shares := make([]string, steadySets)
		for s := range steadySets {
			vals[s] = make(map[string][]float64)
			var att, failed int
			for i := range n {
				seed := int64(1 + 100*s + i)
				r, err := runChild(w, seed, seconds, 0, false)
				if err != nil {
					return err
				}
				if !r.Correct {
					fmt.Printf("%s seed %d: outputs incorrect\n", w, seed)
					ok = false
				}
				att += r.Attempted
				failed += r.Failed
				line := fmt.Sprintf("  %s seed %d:", w, seed)
				for _, m := range bf.EndToEnd {
					v := r.Metrics[m.Name].Value
					vals[s][m.Name] = append(vals[s][m.Name], v)
					line += fmt.Sprintf(" %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
			shares[s] = fmt.Sprintf("%d/%d", failed, att)
			if failed != 0 {
				ok = false
			}
		}
		fmt.Printf("\n%s: %d runs per set of %ds, failed/attempted per set %s\n", w, n, seconds, strings.Join(shares, ", "))
		fmt.Printf("  %-16s %-6s %s\n", "metric", "bound", "per set: median [q1, q3] spread; shift of each later median")
		for _, m := range bf.EndToEnd {
			line := fmt.Sprintf("  %-16s %-6.3f", m.Name, m.Bound)
			var first float64
			for s := range steadySets {
				v := vals[s][m.Name]
				med := median(v)
				q1, q3 := quartiles(v)
				spread := (q3 - q1) / med
				flag := ""
				if spread > m.Bound {
					flag, ok = " SPREAD>BOUND", false
				}
				line += fmt.Sprintf(" | %.4g [%.4g, %.4g] %.1f%%%s", med, q1, q3, 100*spread, flag)
				if s == 0 {
					first = med
					continue
				}
				worse := (med - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				line += fmt.Sprintf(" shift %+.1f%%", 100*worse)
				if worse > m.Bound {
					line += " WORSE>BOUND"
					ok = false
				}
			}
			fmt.Println(line)
		}
		tr, err := runChild(w, 1, seconds, 1, false)
		if err != nil {
			return err
		}
		untraced := median(vals[0]["frames_per_s"])
		traced := tr.Metrics["trace.frames_per_s"].Value
		fmt.Printf("  tracing overhead: frames_per_s %.4g traced vs %.4g untraced median (%+.1f%%)\n",
			traced, untraced, 100*(traced-untraced)/untraced)
	}
	if !ok {
		return fmt.Errorf("not steady within the bounds of BENCHMARK.json")
	}
	return nil
}
