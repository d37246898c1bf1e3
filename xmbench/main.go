// Command xmbench is xmatch's serving benchmark. It serves one workload's
// catalog with server.New on a loopback listener inside its own process,
// drives it with a closed loop of keep-alive clients for a fixed time,
// checks every answer it can against an independent PTQ oracle and
// against properties answers must have, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced replay)
// as the last line of its standard output, in JSON.
//
//	xmbench --workload table3-hot --seed 1 --seconds 10 --trace 0
//	xmbench --workload all                 # every workload once
//	xmbench --workload all --repeat 10     # steadiness: spread per metric
//
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "all", "workload to run: table3-hot, param-cold, rw-sharded, or all")
	seed := flag.Int64("seed", 1, "seed of the workload's operations")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced replay instead of the end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times in child processes (seeds seed, seed+1, ...) and print each end-to-end metric's median, quartiles and (max-min)/median")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *wname == "all" || *repeat > 0 {
		names := workloadNames
		if *wname != "all" {
			names = []string{*wname}
		}
		n := *repeat
		if n == 0 {
			n = 1
		}
		if !runChildren(names, n, *seed, *seconds, *trace) {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fatalf("%v", err)
	}
	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = runUntraced(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatalf("%s: %v", w.name(), err)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmbench: "+format+"\n", args...)
	os.Exit(2)
}

// runChildren runs every named workload n times, each run a child
// process of this binary, one at a time. It prints each run's report and,
// when n > 1, the spread of every metric per workload. It returns false
// when any run failed or any check did not hold.
func runChildren(names []string, n int, seed int64, seconds, trace int) bool {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, name := range names {
		var reps []report
		for i := 0; i < n; i++ {
			args := []string{"--workload", name, "--seed", fmt.Sprint(seed + int64(i)),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			var out bytes.Buffer
			cmd.Stdout = &out
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Println(l)
			}
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || runErr != nil {
				fmt.Printf("%s seed %d: run failed: %v %s\n", name, seed+int64(i), runErr, lines[len(lines)-1])
				ok = false
				continue
			}
			fmt.Println(lines[len(lines)-1])
			ok = ok && rep.Correct && rep.Failed == 0
			reps = append(reps, rep)
		}
		if n > 1 && len(reps) > 0 {
			printSpread(name, reps)
		}
	}
	return ok
}

// printSpread prints, per metric, the median, the quartiles (as Python's
// statistics.quantiles(values, n=4) computes them), the interquartile
// range and the full range as shares of the median.
func printSpread(name string, reps []report) {
	var keys []string
	for k := range reps[0].Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "steadiness %s over %d runs:\n", name, len(reps))
	fmt.Fprintf(w, "  %-28s %12s %12s %12s %10s %10s  unit\n", "metric", "q1", "median", "q3", "iqr/med", "range/med")
	for _, k := range keys {
		var v []float64
		for _, r := range reps {
			v = append(v, r.Metrics[k].Value)
		}
		q1, med, q3 := quartiles(v)
		sort.Float64s(v)
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr = (q3 - q1) / med
			rng = (v[len(v)-1] - v[0]) / med
		}
		fmt.Fprintf(w, "  %-28s %12.5g %12.5g %12.5g %9.2f%% %9.2f%%  %s\n", k, q1, med, q3, 100*iqr, 100*rng, reps[0].Metrics[k].Unit)
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4) with the
// default exclusive method.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// header prints the run's identity and machine record.
func header(w workload, seed int64, d time.Duration, traced bool) {
	e := w.entry()
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", w.name(), seed, d.Seconds(), traced)
	fmt.Printf("inputs: dataset %s |M|=%d tau=%g docNodes=%d shards=%d clients=%d editlog=%v\n",
		e.Dataset, e.Mappings, e.Tau, e.DocNodes, max(e.Shards, 1), w.clients(), e.EditLogPath != "")
	fmt.Println(machineLine())
}
