package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runUntraced is one end-to-end run: set up setupRounds times (keeping
// the last server), warm up with one cycle per client, measure for d,
// stop the server, check the outputs and report.
func runUntraced(w workload, seed int64, d time.Duration) (report, error) {
	header(w, seed, d, false)
	dir, err := runDir()
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	var setups, setupWall []float64
	var l *live
	for i := 0; i < setupRounds; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		runtime.GC() // each round starts from the same heap, not the last round's garbage
		start, cpu0 := time.Now(), cpuTime()
		l, err = startServer(w, sdir)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
		if i < setupRounds-1 {
			l.close()
			if err := os.RemoveAll(sdir); err != nil {
				return report{}, err
			}
		}
	}
	defer l.close()
	if err := w.init(l.dataset(), seed); err != nil {
		return report{}, err
	}
	clients := make([]*clientState, w.clients())
	for i := range clients {
		clients[i] = newClientState(l.url, w.stream(i))
		defer clients[i].http.CloseIdleConnections()
	}
	for _, c := range clients {
		c.runCycle(false)
	}
	ph := measure(clients, d, false)

	var ck checker
	checkStart := time.Now()
	w.check(&ck, clients, l)
	l.close()
	checkDur := time.Since(checkStart)

	lat, attempted, failed := merge(clients)
	completed := 0
	for k := range lat {
		completed += len(lat[k])
	}
	fmt.Printf("setup: %d rounds, CPU %.4f s, wall %.4f s\n", len(setups), setups, setupWall)
	fmt.Printf("measured: %.3f s wall, %d operations completed, steal ticks %d\n", ph.wall.Seconds(), completed, ph.steal)
	for k := opKind(0); k < numKinds; k++ {
		if attempted[k] == 0 {
			continue
		}
		fmt.Printf("  %-7s attempted %6d failed %d  p50 %.3f ms  p90 %.3f ms\n", kindNames[k], attempted[k], failed[k],
			percentile(lat[k], 0.5), percentile(lat[k], 0.9))
	}
	fmt.Printf("query tail: %s\n", tailLine(lat[kindQuery]))
	if len(lat[kindMutate]) > 0 {
		fmt.Printf("mutate_p50_ms: %.4f ms (acknowledged, fsynced)\n", percentile(lat[kindMutate], 0.5))
	}
	fmt.Printf("checks: %d responses checked, %d of them against the oracle, %d failures, %.1f s\n", ck.checked, ck.oracle, len(ck.errs), checkDur.Seconds())
	for _, e := range ck.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}

	q := quietWindows(clients, ph)
	fmt.Printf("windows: the %d of %d with the least steal (%d of %d steal ticks), %.2f s (%.2f s unstolen), %d operations, %.2f ops/s unscaled\n",
		q.windows, q.of, q.steal, q.stealAll, q.seconds, q.granted, q.ops, float64(q.ops)/q.seconds)
	fmt.Printf("resident set: median %.1f MB over the window boundaries, peak (VmHWM) %.1f MB\n", median(ph.rssMB), statusMB("VmHWM"))
	fmt.Printf("whole phase: %.2f ops/s, %.4f ms CPU per op\n", float64(completed)/ph.wall.Seconds(), float64(ph.cpu.Nanoseconds())/1e6/float64(max(completed, 1)))
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_ops": {float64(q.ops) / q.granted, "ops/s"},
		"query_p50_ms":   {bandMean(q.lat[kindQuery], 0.5), "ms"},
		"query_p90_ms":   {bandMean(q.lat[kindQuery], 0.9), "ms"},
		"batch_p50_ms":   {bandMean(q.lat[kindBatch], 0.5), "ms"},
		"cpu_ms_per_op":  {float64(q.cpu.Nanoseconds()) / 1e6 / float64(max(q.ops, 1)), "ms"},
		"rss_mb":         {median(ph.rssMB), "MB"},
	}
	printMetrics(m)
	return report{
		Correct:   len(ck.errs) == 0,
		Attempted: sumInts(attempted[:]),
		Failed:    sumInts(failed[:]),
		Metrics:   m,
	}, nil
}

// merge pools the clients' records: sorted timed latencies, attempts and
// failures per op kind.
func merge(clients []*clientState) (lat [numKinds][]float64, attempted, failed [numKinds]int) {
	for _, c := range clients {
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k]...)
			attempted[k] += c.attempted[k]
			failed[k] += c.failed[k]
		}
	}
	for k := range lat {
		sort.Float64s(lat[k])
	}
	return lat, attempted, failed
}

func printMetrics(m map[string]metric) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
