package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"image"
	"image/png"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/render"
	"repro/internal/serve"
)

// serve-mix drives quakeserve over loopback HTTP with an open-loop
// generator: requests are due on a fixed schedule whatever the server
// does, at most GOMAXPROCS of them are on the wire at once, and the tail
// is timed from when each request was due, so a stall shows in every
// request it delays (Tene, "How NOT to Measure Latency"). The median is
// timed from when the request was sent, so that it measures the server
// and not the generator's wake-up lag.
const (
	serveDim   = 128 // frame width and height of every request
	knownViews = 6   // orbit views viewers keep coming back to
	warmSteps  = 6   // steps [0, warmSteps) of every known view are cached before timing
	streamLen  = 3   // steps per /frames window
	zipfS      = 1.2 // skew of the popular keys
	minSteps   = 48  // stored timesteps of the serving dataset, at least

	// The run spends mixShare of its time at mixRate requests per
	// second, then steps the offered rate up the ladder.
	mixShare = 0.78
	mixRate  = 30

	// latencyLimit is the p99 a rate must meet to count as sustained.
	latencyLimit = 400 * time.Millisecond
	// lagLimit is how far behind its schedule (p99, mix phase) the
	// generator may send before its from-due latencies are suspect.
	lagLimit = 20 * time.Millisecond
)

// ladder is the load ladder after the mix phase: each rung's offered
// rate in requests per second and its share of the run's time. The top
// rung offers over twice what the server takes on the reference host
// (about 130 frames/s), so the server runs saturated there, long enough
// that new views and well over a hundred misses fall inside it.
var ladder = []struct{ rate, share float64 }{{120, 0.1}, {300, 0.12}}

// Request classes. A request's class is fixed by the schedule, never by
// the server's cache header.
const (
	classHit     = iota // a popular key cached before timing
	classMiss           // the first request for a step of a known view
	classNewView        // a view never seen before
	classPNG            // a popular key, as PNG
	classStream         // a /frames window of cached steps
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "newview", "png", "stream"}

// classShare is each class's share of the requests, per mille. Misses
// are a quarter of the mix so that a 20 s run has over a hundred of them
// at a rate low enough that they seldom wait for one another: on two
// processors, a busier mix measured mostly how requests queued behind
// each other, and varied from run to run by a third. New views are a
// trickle: each builds a session for about 200 ms of a processor.
var classShare = [numClasses]int{690, 250, 10, 30, 20}

// view is one orbit camera with its transfer function.
type view struct {
	az, el float64
	tf     string
}

func (v view) query() string {
	return fmt.Sprintf("w=%d&h=%d&view=orbit&az=%s&el=%s&tf=%s", serveDim, serveDim,
		strconv.FormatFloat(v.az, 'g', -1, 64), strconv.FormatFloat(v.el, 'g', -1, 64), v.tf)
}

var tfNames = []string{"seismic", "hot", "gray"}

// request is one scheduled request.
type request struct {
	id     int
	class  int
	view   int // index into the run's views
	lo, hi int
	due    time.Duration // from the start of the timed phase
	rung   int           // 0 in the mix phase, else 1 + the ladder rung
}

func (r *request) url(base string, views []view) string {
	v := views[r.view].query()
	switch r.class {
	case classStream:
		return fmt.Sprintf("%s/frames?lo=%d&hi=%d&%s", base, r.lo, r.hi, v)
	case classPNG:
		return fmt.Sprintf("%s/frame?step=%d&%s&format=png", base, r.lo, v)
	}
	return fmt.Sprintf("%s/frame?step=%d&%s", base, r.lo, v)
}

// schedule draws the run's views and its requests, and says how many
// timesteps the dataset must store so that every miss is the first
// request for its key. Known views come first in the returned views;
// every new view is appended once.
func schedule(seed int64, seconds float64) (views []view, reqs []*request, steps int) {
	// Known views ring the basin at two elevations, each transfer
	// function on two of them; the seed jitters the angles and deals out
	// the functions, so every seed's views cost about the same to render.
	cam := seedRand(seed, streamCamera)
	views = make([]view, knownViews)
	tfs := cam.Perm(knownViews)
	for k := range views {
		views[k] = view{
			az: float64(k)*360/knownViews + 10*cam.Float64(),
			el: 35 + 20*float64(k%2) + 5*cam.Float64(),
			tf: tfNames[tfs[k]%len(tfNames)],
		}
	}
	r := seedRand(seed, streamSchedule)
	// Popular keys: every warm step of every known view, ranked by a
	// seeded permutation and drawn with Zipf weights.
	type key struct{ view, step int }
	var popular []key
	for k := 0; k < knownViews; k++ {
		for s := 0; s < warmSteps; s++ {
			popular = append(popular, key{k, s})
		}
	}
	r.Shuffle(len(popular), func(i, j int) { popular[i], popular[j] = popular[j], popular[i] })
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(popular)-1))
	// Miss keys: the known views in turn, each view's later steps in a
	// seeded order. Taking the views in turn has every known view's
	// session used often enough that the pool never evicts it for a new
	// view's.
	misses := 0

	// Classes are interleaved evenly, each at its share with a seeded
	// phase, so no seed bunches its slow requests together: a new view's
	// cold session next to a run of misses would make the seed, not the
	// server, set the tail.
	var next [numClasses]float64
	for c := range next {
		next[c] = r.Float64() * 1000 / float64(classShare[c])
	}
	add := func(due time.Duration, rung int) {
		class := 0
		for c := range next {
			if next[c] < next[class] {
				class = c
			}
		}
		next[class] += 1000 / float64(classShare[class])
		q := &request{id: len(reqs), class: class, due: due, rung: rung}
		switch q.class {
		case classHit, classPNG:
			k := popular[zipf.Uint64()]
			q.view, q.lo = k.view, k.step
		case classMiss:
			q.view, q.lo = misses%knownViews, warmSteps+misses/knownViews
			misses++
		case classNewView:
			views = append(views, view{az: 360 * r.Float64(), el: 35 + 20*r.Float64(), tf: tfNames[r.IntN(len(tfNames))]})
			q.view, q.lo = len(views)-1, -1 // step drawn once the dataset's length is known
		case classStream:
			q.view, q.lo = r.IntN(knownViews), r.IntN(warmSteps-streamLen+1)
		}
		q.hi = q.lo + 1
		if q.class == classStream {
			q.hi = q.lo + streamLen
		}
		reqs = append(reqs, q)
	}
	// Arrivals are evenly spaced at each phase's rate.
	var t time.Duration
	mixEnd := time.Duration(mixShare * seconds * float64(time.Second))
	for gap := time.Second / mixRate; t < mixEnd; t += gap {
		add(t, 0)
	}
	for i, rung := range ladder {
		end := t + time.Duration(rung.share*seconds*float64(time.Second))
		for gap := time.Duration(float64(time.Second) / rung.rate); t < end; t += gap {
			add(t, i+1)
		}
		t = end
	}
	steps = max(minSteps, warmSteps+(misses+knownViews-1)/knownViews)
	// Each view's miss steps are its later steps in a seeded order that
	// takes them from eight strata of the step range in turn, so every
	// seed's misses render early, middle and late wave fields alike.
	perm := make([][]int, knownViews)
	for k := range perm {
		perm[k] = stratifiedOrder(r, steps-warmSteps, 8)
	}
	newSteps := stratifiedOrder(r, steps, 8)
	newViews := 0
	for _, q := range reqs {
		switch q.class {
		case classMiss:
			q.lo = warmSteps + perm[q.view][q.lo-warmSteps]
			q.hi = q.lo + 1
		case classNewView:
			q.lo = newSteps[newViews%steps]
			q.hi = q.lo + 1
			newViews++
		}
	}
	return views, reqs, steps
}

// stratifiedOrder returns a permutation of [0, n) that visits strata
// equal slices of the range in turn, in a seeded order within each.
func stratifiedOrder(r *rand.Rand, n, strata int) []int {
	lists := make([][]int, strata)
	for i := range n {
		s := i * strata / n
		lists[s] = append(lists[s], i)
	}
	for _, l := range lists {
		r.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	out := make([]int, 0, n)
	for len(out) < n {
		for s := range lists {
			if len(lists[s]) > 0 {
				out = append(out, lists[s][0])
				lists[s] = lists[s][1:]
			}
		}
	}
	return out
}

// reply is what the generator saw of one request: when it was sent and
// when its last body byte arrived, and what checking it needs later.
type reply struct {
	sent, done time.Time
	cache      string   // the server's cache header
	digests    []uint64 // per raw frame payload
	png        []byte   // PNG body, kept for the first request of its key
	pngDigest  uint64
	err        error
}

// handlerTimer wraps the server's ServeHTTP and records a span per
// request, parented to the generator's span of the same request.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := now()
	h.next.ServeHTTP(w, r)
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	h.tr.add(span{Name: "serve.handler", Start: t0, End: now(), Parent: parent, Rank: -1, Step: -1,
		Req: req, Class: r.Header.Get("X-Bench-Class")})
}

func runServeMix(cfg runConfig) (*outcome, error) {
	t0 := time.Now()
	views, reqs, steps := schedule(cfg.seed, cfg.duration.Seconds())
	store, _, err := makeDataset(cfg.seed, steps)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	procs := runtime.GOMAXPROCS(0)

	// Set-up: the engine (which scans the dataset's range) and the
	// server, built several times, each after a collection so that no
	// build pays for the garbage of the one before; the last one serves.
	var setups []float64
	var srv *serve.Server
	for i := 0; i < 15; i++ {
		if srv != nil {
			srv.Shutdown(context.Background())
		}
		runtime.GC()
		t0 := time.Now()
		eng, err := serve.NewEngine(&tracedStore{Store: store, tr: tr}, serve.EngineConfig{
			CacheBytes:  48 << 20,
			MaxSessions: knownViews + 2,
			Lighting:    true,
		})
		if err != nil {
			return nil, err
		}
		// Shed nothing: the generator keeps at most procs requests on the
		// wire, so a queue of that depth and a long timeout never refuse.
		srv = serve.NewServer(eng, serve.ServerConfig{MaxInFlight: procs, MaxQueue: procs, QueueTimeout: time.Hour})
		setups = append(setups, time.Since(t0).Seconds())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: &handlerTimer{next: srv, tr: tr}}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
		srv.Shutdown(context.Background())
	}()
	base := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Warm-up, untimed: every known view's warm steps into the cache
	// (which also builds each known view's session).
	for k := 0; k < knownViews; k++ {
		q := &request{id: -1, class: classStream, view: k, lo: 0, hi: warmSteps}
		var body bytes.Buffer
		if rep := fetch(client, &body, base, views, q, nil, nil); rep.err != nil {
			return nil, fmt.Errorf("warming view %d: %w", k, rep.err)
		}
	}

	tWarm := time.Now()
	// Timed phase.
	replies := make([]reply, len(reqs))
	lags := make([]float64, len(reqs))
	var pngMu sync.Mutex
	pngSeen := make(map[[2]int]bool)
	keepPNG := func(q *request) bool {
		pngMu.Lock()
		defer pngMu.Unlock()
		k := [2]int{q.view, q.lo}
		first := !pngSeen[k]
		pngSeen[k] = true
		return first
	}
	var queued []float64
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	if tr != nil {
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					queued = append(queued, float64(srv.Snapshot().Queued))
				}
			}
		}()
	}
	before := srv.Snapshot()
	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	work := make(chan *request, len(reqs)) // sized to the schedule: the dispatcher never blocks
	var workers sync.WaitGroup
	for range procs {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var body bytes.Buffer
			for q := range work {
				replies[q.id] = fetch(client, &body, base, views, q, tr, keepPNG)
			}
		}()
	}
	for _, q := range reqs {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[q.id] = float64(time.Since(due)) / 1e6
		work <- q
	}
	close(work)
	workers.Wait()
	peak := heap.finish()
	rt1 := readRuntime()
	after := srv.Snapshot()
	close(stopSampling)
	sampling.Wait()

	tTimed := time.Now()
	out := &outcome{correct: true, attempted: len(reqs)}
	if err := checkServed(out, store, views, reqs, replies); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("phases: dataset+setup+warm-up %.1fs, timed %.1fs, checks %.1fs",
		tWarm.Sub(t0).Seconds(), tTimed.Sub(tWarm).Seconds(), time.Since(tTimed).Seconds()))

	// Latency of each request from when it was due, by phase and class,
	// and of the mix phase's requests from when they were sent.
	lat := func(q *request) float64 { return float64(replies[q.id].done.Sub(start.Add(q.due))) / 1e6 }
	var mixAll, mixSent, mixLags []float64
	var byClass [numClasses][]float64
	rates := []float64{mixRate}
	for _, r := range ladder {
		rates = append(rates, r.rate)
	}
	rungLat := make([][]float64, len(rates))
	for _, q := range reqs {
		if replies[q.id].err != nil {
			continue
		}
		rungLat[q.rung] = append(rungLat[q.rung], lat(q))
		if q.rung == 0 {
			mixAll = append(mixAll, lat(q))
			mixSent = append(mixSent, float64(replies[q.id].done.Sub(replies[q.id].sent))/1e6)
			mixLags = append(mixLags, lags[q.id])
			byClass[q.class] = append(byClass[q.class], lat(q))
		}
	}
	// Capacity: the top rung offers more than the server can take, so
	// the frames it delivers per second while saturated are its capacity
	// for this mix. The rate is taken between the 10th and the 90th
	// percentile of the rung's completions, clear of the ramp into and
	// out of saturation.
	top := len(rates) - 1
	type completion struct {
		at     time.Time
		frames int
	}
	var done []completion
	for _, q := range reqs {
		if rep := replies[q.id]; q.rung == top && rep.err == nil {
			done = append(done, completion{rep.done, q.hi - q.lo})
		}
	}
	slices.SortFunc(done, func(a, b completion) int { return a.at.Compare(b.at) })
	lo, hi := len(done)/10, len(done)*9/10
	var topFrames int
	for _, c := range done[lo+1 : hi+1] {
		topFrames += c.frames
	}
	// capacity_rps is the highest offered rate whose p99 meets
	// the latency limit; a growing backlog fails the limit by itself.
	capacity := 0.0
	for i, l := range rungLat {
		if len(l) > 0 && quantile(l, 0.99) <= float64(latencyLimit)/1e6 {
			capacity = rates[i]
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("capacity: %d frames in %.2fs of the top rung", topFrames, done[hi].at.Sub(done[lo].at).Seconds()))
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"frames_per_s":   float64(topFrames) / done[hi].at.Sub(done[lo].at).Seconds(),
		"latency_p50_ms": median(mixSent),
		"latency_p90_ms": quantile(mixAll, 0.9),
		"peak_heap_mb":   peak,
	}
	out.samples, out.tail = len(mixAll), tailOK(len(mixAll), 0.9)
	// The generator must keep to its schedule for the from-due tail to
	// measure the server; a run where it fell behind says so.
	late := quantile(mixLags, 0.99)
	out.notes = append(out.notes, fmt.Sprintf("generator lag in the mix phase: p99 %.2f ms", late))
	if late > lagLimit.Seconds()*1e3 {
		out.notes = append(out.notes, fmt.Sprintf("INVALID: the generator fell behind its schedule by more than %v at p99", lagLimit))
	}
	classQ := func(c int, q float64) float64 {
		if !tailOK(len(byClass[c]), q) {
			out.notes = append(out.notes, fmt.Sprintf("%s: %d samples do not support p%g", classNames[c], len(byClass[c]), 100*q))
		}
		return quantile(byClass[c], q)
	}
	classes := map[string]float64{
		"hit_p50_ms":     median(byClass[classHit]),
		"hit_p95_ms":     classQ(classHit, 0.95),
		"miss_p50_ms":    median(byClass[classMiss]),
		"miss_p90_ms":    classQ(classMiss, 0.9),
		"newview_p50_ms": median(byClass[classNewView]),
		"png_p50_ms":     median(byClass[classPNG]),
		"stream_p50_ms":  median(byClass[classStream]),
		"capacity_rps":   capacity,
	}
	for c := range byClass {
		out.notes = append(out.notes, fmt.Sprintf("%-8s %5d requests in the mix phase", classNames[c], len(byClass[c])))
	}
	for i, l := range rungLat {
		out.notes = append(out.notes, fmt.Sprintf("rung %4.0f req/s: %4d requests, p50 %8.2f ms, p99 %8.2f ms", rates[i], len(l), median(l), quantile(l, 0.99)))
	}
	for _, name := range []string{"hit_p50_ms", "hit_p95_ms", "miss_p50_ms", "miss_p90_ms", "newview_p50_ms", "png_p50_ms", "stream_p50_ms", "capacity_rps"} {
		out.notes = append(out.notes, fmt.Sprintf("%-14s %10.4f", name, classes[name]))
	}
	if !cfg.trace {
		return out, nil
	}

	path := spanPath(cfg.workload, cfg.seed)
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	spans, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(spans)
	layer := zeroLayers()
	for name, v := range classes {
		layer[name] = v
	}
	handler := make(map[uint64]span)
	for c := range numClasses {
		var d []float64
		for _, s := range ix.byName["serve.handler"] {
			if s.Class == classNames[c] && s.Req >= 0 {
				d = append(d, s.ms())
			}
		}
		layer["serve."+classNames[c]+"_handler_ms"] = median(d)
	}
	for _, s := range ix.byName["serve.handler"] {
		handler[s.Parent] = s
	}
	var overhead []float64
	for _, s := range ix.byName["http.request"] {
		if h, ok := handler[s.ID]; ok && s.Class == classNames[classHit] {
			overhead = append(overhead, s.ms()-h.ms())
		}
	}
	layer["http.client_overhead_ms"] = median(overhead)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	layer["serve.cache_evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	renders := float64(after.RenderedFrames - before.RenderedFrames)
	var rendered int
	for _, q := range reqs {
		if q.class == classMiss || q.class == classNewView {
			rendered++
		}
	}
	layer["serve.renders_per_key"] = renders / float64(rendered)
	layer["serve.cold_sessions"] = float64(after.ColdSessions - before.ColdSessions)
	layer["serve.queued_p99"] = quantile(queued, 0.99)
	var frames int
	for _, q := range reqs {
		frames += q.hi - q.lo
	}
	alloc := float64(rt1.allocBytes - rt0.allocBytes)
	layer["serve.alloc_kb_per_req"] = alloc / 1024 / float64(len(reqs))
	layer["runtime.alloc_kb_per_frame"] = alloc / 1024 / float64(frames)
	layer["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	layer["loadgen.late_p99_ms"] = late
	var reads []span
	from, to := int64(start.Sub(epoch)), int64(tTimed.Sub(epoch))
	for _, s := range ix.byName["pfs.read"] {
		if s.Start >= from && s.End <= to {
			reads = append(reads, s)
		}
	}
	var readBytes int64
	var readMs float64
	for _, s := range reads {
		readBytes += s.Bytes
		readMs += s.ms()
	}
	layer["pfs.read_calls"] = float64(len(reads)) / renders
	layer["pfs.read_mb"] = float64(readBytes) / (1 << 20) / renders
	layer["pfs.read_ms"] = readMs / renders
	layer["trace.frames_per_s"] = out.e2e["frames_per_s"]
	layer["trace.latency_p50_ms"] = out.e2e["latency_p50_ms"]
	layer["trace.spans_per_frame"] = float64(len(spans)) / float64(frames)
	out.layer = layer
	return out, nil
}

// fetch sends one request and reads its whole body into the worker's
// buffer. The reply's digests are taken after the last byte arrived, so
// checking costs the request nothing; comparing them waits until the
// timed phase is over.
func fetch(client *http.Client, body *bytes.Buffer, base string, views []view, q *request, tr *tracer, keepPNG func(*request) bool) reply {
	var rep reply
	hreq, err := http.NewRequest(http.MethodGet, q.url(base, views), nil)
	if err != nil {
		rep.err = err
		return rep
	}
	var id uint64
	if tr != nil {
		id = tr.nextID()
		hreq.Header.Set("X-Bench-Span", strconv.FormatUint(id, 10))
		hreq.Header.Set("X-Bench-Req", strconv.Itoa(q.id))
		hreq.Header.Set("X-Bench-Class", classNames[q.class])
	}
	rep.sent = time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		rep.err = err
		return rep
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	rep.done = time.Now()
	if tr != nil {
		tr.add(span{ID: id, Name: "http.request", Start: int64(rep.sent.Sub(epoch)), End: int64(rep.done.Sub(epoch)),
			Rank: -1, Step: q.lo, Req: int64(q.id), Class: classNames[q.class]})
	}
	switch {
	case err != nil:
		rep.err = fmt.Errorf("reading body: %w", err)
		return rep
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body.Bytes()))
		return rep
	case resp.Header.Get(serve.HeaderDegraded) != "":
		rep.err = errors.New("response marked degraded")
		return rep
	}
	rep.cache = resp.Header.Get(serve.HeaderCache)
	b := body.Bytes()
	if q.class == classPNG {
		if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
			rep.err = fmt.Errorf("PNG response with content type %q", ct)
		}
		rep.pngDigest = maphash.Bytes(digestSeed, b)
		if keepPNG(q) {
			rep.png = slices.Clone(b)
		}
		return rep
	}
	// Raw frames: each must decode at its declared size, for the step
	// asked for, with the request's geometry and no degraded flag.
	for step := q.lo; step < q.hi; step++ {
		if len(b) < serve.WireHeaderSize || string(b[:4]) != serve.WireMagic {
			rep.err = fmt.Errorf("step %d: no wire frame header", step)
			return rep
		}
		s := int(binary.LittleEndian.Uint32(b[4:]))
		w := int(binary.LittleEndian.Uint32(b[8:]))
		h := int(binary.LittleEndian.Uint32(b[12:]))
		flags := binary.LittleEndian.Uint32(b[16:])
		n := serve.WireHeaderSize + 16*w*h
		switch {
		case s != step || w != serveDim || h != serveDim:
			rep.err = fmt.Errorf("frame header says step %d %dx%d, want step %d %dx%d", s, w, h, step, serveDim, serveDim)
			return rep
		case flags&serve.WireFlagDegraded != 0:
			rep.err = fmt.Errorf("step %d: frame flagged degraded", step)
			return rep
		case len(b) < n:
			rep.err = fmt.Errorf("step %d: body holds %d of %d frame bytes", step, len(b), n)
			return rep
		}
		rep.digests = append(rep.digests, maphash.Bytes(digestSeed, b[serve.WireHeaderSize:n]))
		b = b[n:]
	}
	if len(b) != 0 {
		rep.err = fmt.Errorf("%d bytes after the last frame", len(b))
	}
	return rep
}

// checkServed compares every reply with a batch render of the same view:
// a RunReal pipeline on another layout that scans the dataset's range
// itself. Raw frames must equal it bit for bit; PNG bodies must decode
// to the pixels of that frame's PNG. A reply that fails counts as a
// failed operation.
func checkServed(out *outcome, store pfs.Store, views []view, reqs []*request, replies []reply) error {
	need := make(map[int]map[int]bool) // view -> steps to render
	for _, q := range reqs {
		if need[q.view] == nil {
			need[q.view] = make(map[int]bool)
		}
		for s := q.lo; s < q.hi; s++ {
			need[q.view][s] = true
		}
	}
	type ref struct {
		digest uint64
		png    image.Image
	}
	refs := make(map[[2]int]ref)
	pngSteps := make(map[[2]int]bool)
	for _, q := range reqs {
		if q.class == classPNG {
			pngSteps[[2]int{q.view, q.lo}] = true
		}
	}
	for v, steps := range need {
		lo, hi := 1<<30, 0
		for s := range steps {
			lo, hi = min(lo, s), max(hi, s+1)
		}
		frames, err := batchFrames(store, views[v], lo, hi)
		if err != nil {
			return fmt.Errorf("batch reference for view %d: %w", v, err)
		}
		for s := range steps {
			f := frames[s-lo]
			r := ref{digest: maphash.Bytes(digestSeed, serve.AppendWireFrame(nil, s, f, false)[serve.WireHeaderSize:])}
			if pngSteps[[2]int{v, s}] {
				var buf bytes.Buffer
				if err := f.WritePNG(&buf); err != nil {
					return err
				}
				if r.png, err = png.Decode(&buf); err != nil {
					return err
				}
			}
			refs[[2]int{v, s}] = r
		}
	}
	pngBody := make(map[[2]int]uint64)
	for _, q := range reqs {
		rep := replies[q.id]
		if rep.err != nil {
			out.fail(1, fmt.Errorf("request %d (%s): %w", q.id, classNames[q.class], rep.err))
			continue
		}
		if q.class == classPNG {
			k := [2]int{q.view, q.lo}
			if rep.png != nil {
				got, err := png.Decode(bytes.NewReader(rep.png))
				if err != nil || !samePixels(got, refs[k].png) {
					out.fail(1, fmt.Errorf("request %d: PNG of view %d step %d does not decode to the batch frame's pixels (%v)", q.id, q.view, q.lo, err))
					continue
				}
				pngBody[k] = rep.pngDigest
			}
			continue
		}
		for i, d := range rep.digests {
			if d != refs[[2]int{q.view, q.lo + i}].digest {
				out.fail(1, fmt.Errorf("request %d (%s): view %d step %d differs from the batch render", q.id, classNames[q.class], q.view, q.lo+i))
				break
			}
		}
	}
	// Later PNG bodies of a key must be the body that was decoded.
	for _, q := range reqs {
		rep := replies[q.id]
		if q.class == classPNG && rep.err == nil && rep.png == nil {
			if d, ok := pngBody[[2]int{q.view, q.lo}]; ok && d != rep.pngDigest {
				out.fail(1, fmt.Errorf("request %d: PNG body differs from an earlier body of the same frame", q.id))
			}
		}
	}
	var mismatched [numClasses]int
	for _, q := range reqs {
		want := "hit"
		if q.class == classMiss || q.class == classNewView {
			want = "miss"
		}
		if c := replies[q.id].cache; c != "" && c != want {
			mismatched[q.class]++
		}
	}
	for c, n := range mismatched {
		if n > 0 {
			out.notes = append(out.notes, fmt.Sprintf("%d %s requests came back with another cache disposition", n, classNames[c]))
		}
	}
	return nil
}

func samePixels(a, b image.Image) bool {
	if a == nil || b == nil || a.Bounds() != b.Bounds() {
		return false
	}
	r := a.Bounds()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			ar, ag, ab, aa := a.At(x, y).RGBA()
			br, bg, bb, ba := b.At(x, y).RGBA()
			if ar != br || ag != bg || ab != bb || aa != ba {
				return false
			}
		}
	}
	return true
}

// batchFrames renders dataset steps [lo, hi) of one view as a batch job
// would: a fresh workload on layout {2,1,2,1} that scans the dataset's
// range itself, run in-process.
func batchFrames(store pfs.Store, v view, lo, hi int) ([]*img.Image, error) {
	l := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	opts := core.DefaultOptions(serveDim, serveDim)
	opts.View = render.OrbitView(serveDim, serveDim, v.az, v.el)
	opts.TFName = v.tf
	opts.Lighting = true
	w, err := core.NewRealWorkload(l, opts, store)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if err := w.SetStepWindow(lo, hi); err != nil {
		return nil, err
	}
	p, err := core.NewPipeline(l, w)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var errs []error
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	frames := make([]*img.Image, hi-lo)
	for i := range frames {
		if frames[i] = w.Frame(i); frames[i] == nil {
			return nil, fmt.Errorf("no frame for step %d", lo+i)
		}
	}
	return frames, nil
}
