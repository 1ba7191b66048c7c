package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runRecord is one run read back from its output lines.
type runRecord struct {
	hdr   header
	extra metrics
	res   result
}

// readRuns reads every run in a file of concatenated run outputs. Lines
// that are not JSON objects are skipped.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var cur runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(text, "{") {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(text), &obj); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		switch {
		case obj["header"] != nil:
			cur = runRecord{}
			err = json.Unmarshal(obj["header"], &cur.hdr)
		case obj["extra"] != nil:
			err = json.Unmarshal(obj["extra"], &cur.extra)
		case obj["metrics"] != nil:
			if err = json.Unmarshal([]byte(text), &cur.res); err == nil {
				if cur.hdr.Workload == "" {
					return nil, fmt.Errorf("%s:%d: result without a header", path, line)
				}
				runs = append(runs, cur)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the three quartiles of xs by Python's
// statistics.quantiles(xs, n=4) ("exclusive" method), the definition the
// benchmark's acceptance check uses.
func quartiles(xs []float64) [3]float64 {
	d := sortedCopy(xs)
	n := len(d)
	var q [3]float64
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// runCompare prints, for each workload and metric, the median and
// quartiles of run set A and run set B, B's paired win fraction and, for
// end-to-end metrics, whether B's median stays within the metric's bound
// of A's. It reports whether every bounded metric passed and no run of B
// failed its output checks.
func runCompare(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	byWorkload := func(runs []runRecord) (map[string][]runRecord, []string) {
		out := map[string][]runRecord{}
		var order []string
		for _, r := range runs {
			if _, ok := out[r.hdr.Workload]; !ok {
				order = append(order, r.hdr.Workload)
			}
			out[r.hdr.Workload] = append(out[r.hdr.Workload], r)
		}
		return out, order
	}
	ga, order := byWorkload(a)
	gb, _ := byWorkload(b)

	pass := true
	for _, wl := range order {
		ra, rb := ga[wl], gb[wl]
		if len(rb) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, bPath)
			pass = false
			continue
		}
		fmt.Fprintf(w, "%s: A %d runs, B %d runs\n", wl, len(ra), len(rb))
		bad := 0
		for _, r := range rb {
			if !r.res.Correct {
				bad++
			}
		}
		fmt.Fprintf(w, "  failed ops  A %d  B %d; runs failing checks  B %d\n", sumFailed(ra), sumFailed(rb), bad)
		if bad > 0 {
			pass = false
		}
		seen := map[string]bool{}
		for _, e := range spec.EndToEnd {
			seen[e.Name] = true
			if ok := compareMetric(w, e.Name, e.Better, e.Bound, ra, rb, resultMetric); !ok {
				pass = false
			}
		}
		for _, l := range spec.PerLayer {
			seen[l.Name] = true
			compareMetric(w, l.Name, l.Better, math.NaN(), ra, rb, resultMetric)
		}
		var extras []string
		for _, r := range ra {
			for name := range r.extra {
				if !seen[name] {
					seen[name] = true
					extras = append(extras, name)
				}
			}
		}
		sort.Strings(extras)
		for _, name := range extras {
			compareMetric(w, name, "", math.NaN(), ra, rb, extraMetric)
		}
	}
	return pass, nil
}

func sumFailed(runs []runRecord) int {
	n := 0
	for _, r := range runs {
		n += r.res.Failed
	}
	return n
}

func resultMetric(r runRecord, name string) (float64, bool) {
	m, ok := r.res.Metrics[name]
	return m.Value, ok
}

func extraMetric(r runRecord, name string) (float64, bool) {
	m, ok := r.extra[name]
	return m.Value, ok
}

// compareMetric prints one metric's line and reports whether it passed:
// B's median may be worse than A's by at most bound (a share of A's
// median). A NaN bound or an empty better direction only reports.
func compareMetric(w io.Writer, name, better string, bound float64, ra, rb []runRecord,
	get func(runRecord, string) (float64, bool)) bool {
	values := func(runs []runRecord) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := get(r, name); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	xa, xb := values(ra), values(rb)
	if len(xa) == 0 || len(xb) == 0 {
		return len(xa) == len(xb) || math.IsNaN(bound)
	}
	qa, qb := quartiles(xa), quartiles(xb)
	sign := 0.0
	switch better {
	case "lower":
		sign = 1
	case "higher":
		sign = -1
	}
	// Pairs are the i-th runs of each set, in file order.
	wins, pairs := 0, min(len(xa), len(xb))
	for i := 0; i < pairs; i++ {
		if sign*(xb[i]-xa[i]) < 0 {
			wins++
		}
	}
	worse := sign * (qb[1] - qa[1]) / math.Abs(qa[1])
	verdict, ok := "", true
	if !math.IsNaN(bound) && sign != 0 {
		ok = worse <= bound
		verdict = fmt.Sprintf("bound %.4g%%  %s", 100*bound, map[bool]string{true: "pass", false: "FAIL"}[ok])
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	fmt.Fprintf(w, "  %-24s A %-11.5g [%.5g, %.5g] spread %5.1f%%  B %-11.5g [%.5g, %.5g] spread %5.1f%%  %+6.2f%%  wins %d/%d  %s\n",
		name, qa[1], qa[0], qa[2], 100*spread(qa), qb[1], qb[0], qb[2], 100*spread(qb),
		100*(qb[1]-qa[1])/math.Abs(qa[1]), wins, pairs, verdict)
	return ok
}
