package main

// The untraced run: set-up, warm-up, the measured closed loop over
// loopback, and the end-to-end metrics.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// setupRounds is how many times a run sets up its server; setup_s is the
// median.
const setupRounds = 9

// live is one in-process server on a loopback listener.
type live struct {
	once   sync.Once
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	dir    string
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// buildCatalog materializes the workload's one-entry manifest, with edit
// logs (when the entry has them) under dir. Edit-log appends are fsynced
// before a mutation is acknowledged, as xmatchd does by default.
func buildCatalog(w workload, dir string) (*server.Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &store.Catalog{Entries: []store.CatalogEntry{w.entry()}}
	return server.BuildCatalogOpts(man, dir, engine.Options{}, server.CatalogOptions{})
}

// startServer builds the catalog, the server and a loopback listener,
// and returns once the listener has answered a first request.
func startServer(w workload, dir string) (*live, error) {
	srv, err := server.New(func() (*server.Catalog, error) { return buildCatalog(w, dir) }, server.Options{Logger: discardLogger})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}), url: "http://" + ln.Addr().String(), dir: dir}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(l.url + "/healthz")
	if err != nil {
		l.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		l.close()
		return nil, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return l, nil
}

// close stops the listener, waits for the serving goroutine to return
// and releases the server. Later calls do nothing.
func (l *live) close() {
	l.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = l.hs.Shutdown(ctx)
		<-l.served
		_ = l.srv.Close()
	})
}

func (l *live) dataset() *server.Dataset { return l.srv.Catalog().Get(datasetName) }

// newHTTPClient is one keep-alive client connection, as a caller of
// xmatchd that waits for each reply holds.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// kept is a response retained for the output checks.
type kept struct {
	o    *op
	body []byte
}

// clientState is one client's connection and its private record of the
// run; nothing in it is shared with other clients.
type clientState struct {
	http *http.Client
	url  string
	s    stream
	lat  [numKinds][]float64 // milliseconds
	// timed records every timed op's kind, latency and completion time
	// (from the start of the measured phase), for the windowed metrics.
	timed     []sample
	phase0    time.Time
	attempted [numKinds]int
	failed    [numKinds]int
	kept      []kept
	// lens is the body length of every successful response, in order.
	lens []int
	// wantLen holds the body length of the first response to each op of
	// a fixed cycle; later responses must repeat it.
	wantLen     map[*op]int
	lenMismatch int
}

func newClientState(url string, s stream) *clientState {
	return &clientState{http: newHTTPClient(), url: url, s: s, wantLen: map[*op]int{}}
}

// do sends one op and records its outcome.
func (c *clientState) do(o *op, timed bool) {
	start := time.Now()
	status, body, err := send(c.http, c.url, o)
	took := time.Since(start)
	c.attempted[o.kind]++
	if err != nil || status != http.StatusOK {
		c.failed[o.kind]++
		c.s.done(o, status, body)
		return
	}
	if timed {
		c.lat[o.kind] = append(c.lat[o.kind], float64(took.Nanoseconds())/1e6)
		c.timed = append(c.timed, sample{o.kind, float64(took.Nanoseconds()) / 1e6, time.Since(c.phase0)})
	}
	c.record(o, body)
	c.s.done(o, status, body)
}

// record keeps what the output checks need: every response's length,
// the first response to a fixed op (later ones are compared by length),
// and the responses of ops marked keep.
func (c *clientState) record(o *op, body []byte) {
	c.lens = append(c.lens, len(body))
	if o.fixed {
		if n, ok := c.wantLen[o]; ok {
			if n != len(body) {
				c.lenMismatch++
			}
			return
		}
		c.wantLen[o] = len(body)
		c.kept = append(c.kept, kept{o: o, body: body})
		return
	}
	if o.keep {
		c.kept = append(c.kept, kept{o: o, body: body})
	}
}

// send posts one op and returns the status and body.
func send(hc *http.Client, url string, o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+kindPaths[o.kind], bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runCycle sends one whole cycle of the client's stream.
func (c *clientState) runCycle(timed bool) {
	for {
		o, end := c.s.next()
		c.do(o, timed)
		if end {
			return
		}
	}
}

// sample is one timed operation.
type sample struct {
	kind opKind
	ms   float64
	end  time.Duration
}

// windows is how many equal time windows the measured phase is cut into.
// On a shared host the hypervisor steals CPU time from this guest in
// bursts of seconds (the steal column of /proc/stat), which would
// otherwise decide a run's latency and throughput. Two measures keep it
// out: the throughput and latency metrics pool only the half of the
// windows with the fewest steal ticks, and within each window they are
// scaled by the share of the guest's vCPU time the host did not steal
// (a latency is scaled by the share in the window it completed in).
// Steal is other tenants' work, not this process's, so neither measure
// depends on the program under test; CPU time per op needs neither.
const windows = 20

// phase is what the measured closed loop saw.
type phase struct {
	wall       time.Duration
	cpu        time.Duration
	steal      int64
	before     runtimeSample
	after      runtimeSample
	heapPeakMB float64
	// bounds are the windows' end offsets, cpuAt the process CPU time
	// and stealAt the steal ticks at each (index 0 is the start).
	bounds  []time.Duration
	cpuAt   []time.Duration
	stealAt []int64
	// rssMB is the resident set read at every inner window boundary.
	rssMB []float64
}

// measure runs every client's closed loop for at least d, each ending at
// the first cycle boundary after d.
func measure(clients []*clientState, d time.Duration, sampleHeap bool) phase {
	runtime.GC()
	var hs *heapSampler
	if sampleHeap {
		hs = startHeapSampler(20 * time.Millisecond)
	}
	var p phase
	p.before = readRuntime()
	steal0 := stealTicks()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	p.bounds = []time.Duration{0}
	p.cpuAt = []time.Duration{cpu0}
	p.stealAt = []int64{steal0}
	// The sampler reads CPU time and steal at each inner window boundary;
	// the last window ends with the phase.
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < windows; k++ {
			at := d * time.Duration(k) / windows
			t := time.NewTimer(time.Until(start.Add(at)))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			p.bounds = append(p.bounds, time.Since(start))
			p.cpuAt = append(p.cpuAt, cpuTime())
			p.stealAt = append(p.stealAt, stealTicks())
			p.rssMB = append(p.rssMB, statusMB("VmRSS"))
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.phase0 = start
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for {
				c.runCycle(true)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	s1 := stealTicks()
	p.bounds = append(p.bounds, p.wall)
	p.cpuAt = append(p.cpuAt, cpu0+p.cpu)
	p.stealAt = append(p.stealAt, s1)
	if steal0 >= 0 && s1 >= 0 {
		p.steal = s1 - steal0
	} else {
		p.steal = -1
	}
	p.after = readRuntime()
	if hs != nil {
		p.heapPeakMB = hs.Stop()
	}
	return p
}

// quiet is the pooled figures of the measured phase's least-stolen half
// of the windows.
type quiet struct {
	windows, of     int
	seconds         float64 // wall time of the pooled windows
	granted         float64 // of it, scaled by the unstolen share
	steal, stealAll int64
	ops             int
	cpu             time.Duration
	lat             [numKinds][]float64 // sorted, scaled by the unstolen share
}

// quietWindows cuts the clients' timed samples into the phase's windows
// and pools the half of the windows with the fewest steal ticks (ties
// go to the earlier window).
func quietWindows(clients []*clientState, p phase) quiet {
	n := len(p.bounds) - 1
	win := func(end time.Duration) int {
		return min(sort.Search(n, func(i int) bool { return end <= p.bounds[i+1] }), n-1)
	}
	steal := func(w int) int64 { return p.stealAt[w+1] - p.stealAt[w] }
	cpus := float64(vcpus())
	share := make([]float64, n) // unstolen share of the guest's vCPU time
	for w := range share {
		secs := (p.bounds[w+1] - p.bounds[w]).Seconds()
		share[w] = min(max(1-float64(steal(w))/(cpus*secs*userHZ), 0.5), 1)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal(order[a]) < steal(order[b]) })
	keep := make([]bool, n)
	q := quiet{windows: (n + 1) / 2, of: n}
	for _, w := range order[:q.windows] {
		keep[w] = true
		secs := (p.bounds[w+1] - p.bounds[w]).Seconds()
		q.seconds += secs
		q.granted += secs * share[w]
		q.cpu += p.cpuAt[w+1] - p.cpuAt[w]
		q.steal += steal(w)
	}
	for w := 0; w < n; w++ {
		q.stealAll += steal(w)
	}
	for _, c := range clients {
		for _, s := range c.timed {
			if w := win(s.end); keep[w] {
				q.lat[s.kind] = append(q.lat[s.kind], s.ms*share[w])
				q.ops++
			}
		}
	}
	for k := range q.lat {
		sort.Float64s(q.lat[k])
	}
	return q
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// bandMean estimates the q-quantile of sorted values as the mean of the
// values ranked within ±10 percentage points of q, narrowed to half the
// distance to the top for high quantiles (±5 points around p90). With a fixed mix of request
// types of very different cost, a quantile often falls between two
// types, and the plain order statistic then jumps from one type's tail
// to the next type's head from run to run; the band mean moves smoothly.
func bandMean(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	w := min(0.10, (1-q)/2)
	lo := int(math.Floor((q - w) * float64(n)))
	hi := int(math.Ceil((q + w) * float64(n)))
	lo, hi = max(lo, 0), min(hi, n)
	if hi <= lo {
		return percentile(sorted, q)
	}
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLine reports the highest listed percentile with at least ten
// samples beyond it, and the sample count.
func tailLine(sorted []float64) string {
	n := len(sorted)
	best := ""
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10 {
			best = fmt.Sprintf("p%g=%.3f ms (%d samples beyond of %d)", q*100, percentile(sorted, q), int(float64(n)*(1-q)), n)
		}
	}
	if best == "" {
		return fmt.Sprintf("too few samples for a tail (%d)", n)
	}
	return best
}

// runDir is the run's scratch directory inside the checkout.
func runDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("xmbench-run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
