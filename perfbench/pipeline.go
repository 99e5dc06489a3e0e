package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// The batch workloads animate a whole dataset again and again until the
// run's time is up; each animation is a fresh workload and pipeline, as a
// new batch job would build them.
const (
	animSteps = 32 // stored timesteps of the batch workloads' dataset
	animFill  = 2  // frames of pipeline fill left out of steady-state figures
)

// camera is a seeded orbit view near the dataset's default view
// direction, with a seeded transfer function.
type camera struct {
	Az, El float64
	TF     string
}

// batchCamera draws the batch workloads' camera. The jitter is small and
// both presets cost about the same to cast (within 2%; the gray preset
// costs 6% more and is left out), so seeds differ in their pictures and
// hardly in their cost.
func batchCamera(seed int64) camera {
	r := seedRand(seed, streamCamera)
	return camera{
		Az: 61 + 12*(r.Float64()-0.5),
		El: 59 + 8*(r.Float64()-0.5),
		TF: []string{"seismic", "hot"}[r.IntN(2)],
	}
}

// pipeRun is one pipeline run over one transport.
type pipeRun struct {
	anim      *animation
	res       *core.Result
	seconds   float64 // the transport's own elapsed time
	runtime   [2]rtStats
	sentMsgs  int64
	sentBytes int64
	err       error
}

// runPipeline builds a workload and a pipeline over store and runs one
// animation on it, in-process (RunReal) or over loopback TCP (RunNet).
// Frames named in keep are copied out whole; every frame is digested.
func runPipeline(l core.Layout, opts core.Options, store pfs.Store, tr *tracer, keep []int, overNet bool) *pipeRun {
	start := now()
	w, err := core.NewRealWorkload(l, opts, &tracedStore{Store: store, tr: tr})
	if err != nil {
		return &pipeRun{err: fmt.Errorf("building workload: %w", err)}
	}
	defer w.Close()
	run := &pipeRun{anim: newAnimation(w.Steps(), keep)}
	run.anim.setupStart = start
	p, err := core.NewPipeline(l, &hookedWorkload{RealWorkload: w, tr: tr, anim: run.anim})
	if err != nil {
		run.err = err
		return run
	}
	run.res = p.Res
	n := l.WorldSize()
	sent := make([][4]int64, n)
	var mu sync.Mutex
	var errs []error
	body := func(c *mpi.Comm) {
		err := p.Run(c)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
		sent[c.Rank()] = [4]int64{int64(c.MsgsSent), int64(c.MsgsRecv), c.BytesSent, c.BytesRecv}
	}
	run.runtime[0] = readRuntime()
	if overNet {
		rep, err := mpi.RunNetErrs(n, mpi.NetTuning{}, body)
		run.seconds = rep.Seconds
		errs = append(errs, err)
		for r, e := range rep.Errs {
			errs = append(errs, e)
			if d := rep.Stats[r].MessagesDropped; d > 0 {
				errs = append(errs, fmt.Errorf("rank %d dropped %d messages", r, d))
			}
		}
	} else {
		run.seconds = mpi.RunReal(n, body)
	}
	run.runtime[1] = readRuntime()
	var tot [4]int64
	for _, s := range sent {
		for i := range tot {
			tot[i] += s[i]
		}
	}
	run.sentMsgs, run.sentBytes = tot[0], tot[2]
	if tot[0] != tot[1] || tot[2] != tot[3] {
		errs = append(errs, fmt.Errorf("messages not conserved: sent %d msgs/%d bytes, received %d/%d", tot[0], tot[2], tot[1], tot[3]))
	}
	if p.Res.Frames != w.Steps() || p.Res.DegradedFrames != 0 {
		errs = append(errs, fmt.Errorf("%d frames (%d degraded), want %d clean", p.Res.Frames, p.Res.DegradedFrames, w.Steps()))
	}
	run.err = errors.Join(errs...)
	return run
}

// batchSpec is one batch workload: its options, layout and transport,
// and the reference it checks its frames against.
type batchSpec struct {
	layout  core.Layout
	opts    core.Options
	overNet bool
	// reference checks the sampled frames of the first animation (all
	// other frames are bit-compared with that animation's); it runs
	// outside the timed phase and returns one error per failed frame.
	// traced says whether the timed phase recorded spans, so a reference
	// run that is timed for comparison pays the same recording cost.
	reference func(st pfs.Store, keep map[int]*img.Image, digests []uint64, traced bool) []error
	// tcpBase, when set, is the in-process run time of the same
	// configuration, for the transport's overhead per frame.
	tcpBase *float64
}

// sampleSteps are the steps whose frames a run compares in full.
func sampleSteps(steps int) []int { return []int{animFill, steps / 2, steps - 1} }

func animateSpec(seed int64, m *mesh.Mesh) batchSpec {
	cam := batchCamera(seed)
	opts := core.DefaultOptions(256, 256)
	opts.View = render.OrbitView(256, 256, cam.Az, cam.El)
	opts.TFName = cam.TF
	opts.Lighting = true
	opts.Enhancement = true
	opts.ReadStrategy = core.ReadIndependent
	opts.Compositor = core.CompositeSLIC
	return batchSpec{
		layout: core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1},
		opts:   opts,
		reference: func(st pfs.Store, keep map[int]*img.Image, _ []uint64, _ bool) []error {
			return checkSerial(st, opts, keep)
		},
	}
}

// checkSerial compares pipeline frames with render.RenderSerial of the
// same step: the same quantized (and enhanced) magnitudes, lighting and
// transfer function, quantized with a range this check scans itself.
func checkSerial(st pfs.Store, opts core.Options, keep map[int]*img.Image) []error {
	m, err := quake.ReadMesh(st)
	if err != nil {
		return []error{err}
	}
	meta, err := quake.ReadMeta(st)
	if err != nil {
		return []error{err}
	}
	mags := make([][]float32, meta.NumSteps)
	var vmax float32
	for t := range mags {
		buf := make([]byte, meta.NumNodes*quake.BytesPerNode)
		if err := st.ReadAt(nil, quake.StepObject(t), 0, buf); err != nil {
			return []error{err}
		}
		mags[t] = render.Magnitude(quake.DecodeStep(buf))
		for _, v := range mags[t] {
			vmax = max(vmax, v)
		}
	}
	level := min(opts.Level, m.Tree.MaxDepth())
	var errs []error
	for t, got := range keep {
		mag := mags[t]
		if opts.Enhancement && t > 0 {
			mag = render.EnhanceTemporal(mag, mags[t-1], opts.EnhanceGain)
		}
		rr := render.NewRenderer()
		rr.Lighting = opts.Lighting
		rr.TF = render.TFByName(opts.TFName)
		view := opts.View
		want, err := render.RenderSerial(rr, m, render.Dequantize(render.Quantize(mag, 0, vmax)), opts.BlockLevel, level, &view)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if got == nil {
			errs = append(errs, fmt.Errorf("step %d: no frame kept", t))
		} else if d := img.RMSE(want, got); d > 1e-5 {
			errs = append(errs, fmt.Errorf("step %d: pipeline frame differs from the serial renderer, RMSE %g", t, d))
		}
	}
	return errs
}

func animateTCPSpec(seed int64, m *mesh.Mesh) batchSpec {
	cam := batchCamera(seed)
	opts := core.DefaultOptions(128, 128)
	opts.View = render.OrbitView(128, 128, cam.Az, cam.El)
	opts.TFName = cam.TF
	opts.Level = m.Tree.MaxDepth() - 2
	opts.ReadStrategy = core.ReadCollective
	opts.Compositor = core.CompositeSLIC
	opts.Compress = true
	opts.LIC = true
	layout := core.Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	spec := batchSpec{layout: layout, opts: opts, overNet: true, tcpBase: new(float64)}
	spec.reference = func(st pfs.Store, keep map[int]*img.Image, digests []uint64, traced bool) []error {
		// The same options and layout in-process: the transport must not
		// change a single bit of any frame. Its run time is the base of the
		// transport's overhead, so it records spans (into a tracer that is
		// thrown away) when the TCP runs did.
		keepSteps := make([]int, 0, len(keep))
		for t := range keep {
			keepSteps = append(keepSteps, t)
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		ref := runPipeline(layout, opts, st, tr, keepSteps, false)
		if ref.err != nil {
			return []error{fmt.Errorf("in-process reference run: %w", ref.err)}
		}
		*spec.tcpBase = ref.seconds
		var errs []error
		for t, d := range digests {
			if d != ref.anim.digests[t] {
				errs = append(errs, fmt.Errorf("step %d: TCP frame differs from the in-process frame", t))
			}
		}
		// Independent reads, uncompressed compositing and another layout
		// must agree within the core suite's tolerance.
		alt := opts
		alt.ReadStrategy = core.ReadIndependent
		alt.Compress = false
		other := runPipeline(core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, alt, st, nil, keepSteps, false)
		if other.err != nil {
			return append(errs, fmt.Errorf("cross-layout reference run: %w", other.err))
		}
		for t, got := range keep {
			want := other.anim.keep[t]
			if want == nil || got == nil {
				errs = append(errs, fmt.Errorf("step %d: frame missing from the cross-layout comparison", t))
			} else if d := img.RMSE(want, got); d > 1e-5 {
				errs = append(errs, fmt.Errorf("step %d: differs from the independent-read uncompressed {2,1,3,1} render, RMSE %g", t, d))
			}
		}
		return errs
	}
	return spec
}

// runBatch runs a batch workload for the given time and checks every
// frame it produced.
func runBatch(cfg runConfig, specOf func(int64, *mesh.Mesh) batchSpec) (*outcome, error) {
	store, m, err := makeDataset(cfg.seed, animSteps)
	if err != nil {
		return nil, err
	}
	spec := specOf(cfg.seed, m)
	cam := batchCamera(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	keep := sampleSteps(animSteps)

	// Timed phase: whole animations until the time is up.
	var runs []*pipeRun
	heap := startHeapSampler()
	deadline := time.Now().Add(cfg.duration)
	for len(runs) < 3 || time.Now().Before(deadline) {
		runs = append(runs, runPipeline(spec.layout, spec.opts, store, tr, keep, spec.overNet))
		keep = nil // only the first animation keeps whole frames
	}
	peak := heap.finish()

	// Checks, outside the timed phase. Every frame of every animation
	// must equal the first animation's frame bit for bit, and the first
	// animation's sampled frames must match the reference.
	out := &outcome{correct: true}
	out.notes = append(out.notes, fmt.Sprintf("source %.3f, camera az %.1f el %.1f, transfer function %s, %d animations",
		sourcePos(cfg.seed), cam.Az, cam.El, cam.TF, len(runs)))
	first := runs[0]
	for i, r := range runs {
		out.attempted += animSteps
		if r.err != nil {
			out.fail(animSteps, fmt.Errorf("animation %d: %w", i, r.err))
			continue
		}
		for t, d := range r.anim.digests {
			if d != first.anim.digests[t] {
				out.fail(1, fmt.Errorf("animation %d step %d: frame differs from animation 0", i, t))
			}
		}
	}
	if first.err == nil {
		for _, err := range spec.reference(store, first.anim.keep, first.anim.digests, cfg.trace) {
			out.fail(1, err)
		}
	}

	var fps, setup, lat, secs, imb []float64
	var frames, inputSteps int
	var wait, msgs, mb, allocs, gcs float64
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		fps = append(fps, 1/r.res.Interframe(animFill))
		setup = append(setup, r.anim.setupSeconds())
		lat = append(lat, r.anim.latencies(animFill)...)
		frames += r.res.Frames
		inputSteps += r.res.Frames * spec.layout.IPsPerGroup
		wait += r.res.WaitCredit
		msgs += float64(r.sentMsgs)
		mb += float64(r.sentBytes) / (1 << 20)
		allocs += float64(r.runtime[1].allocBytes - r.runtime[0].allocBytes)
		gcs += float64(r.runtime[1].gcCycles - r.runtime[0].gcCycles)
		imb = append(imb, r.res.RenderImbalance())
		secs = append(secs, r.seconds)
	}
	if frames == 0 {
		return out, nil
	}
	out.e2e = map[string]float64{
		"setup_s":        median(setup),
		"frames_per_s":   median(fps),
		"latency_p50_ms": median(lat),
		"latency_p90_ms": quantile(lat, 0.9),
		"peak_heap_mb":   peak,
	}
	out.tail = tailOK(len(lat), 0.9)
	out.samples = len(lat)
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
	nf := float64(frames)
	layer["render.step_ms"] = median(ix.durations("render.step"))
	layer["render.imbalance"] = median(imb)
	layer["compositor.step_ms"] = median(ix.durations("compositor.step"))
	layer["core.fetch_ms"] = median(ix.durations("core.fetch"))
	layer["core.fetch_self_ms"] = median(ix.selfDurations("core.fetch"))
	layer["core.preprocess_ms"] = median(ix.durations("core.preprocess"))
	if d := ix.durations("core.lic"); len(d) > 0 {
		layer["core.lic_ms"] = median(d)
	}
	layer["core.payload_ms"] = sum(ix.durations("core.payload")) / float64(inputSteps)
	layer["core.assemble_ms"] = median(ix.durations("core.assemble"))
	layer["core.credit_wait_ms"] = 1000 * wait / float64(inputSteps)
	layer["core.renderer_wait_ms"] = rendererWait(ix)
	// Store reads of the pipeline runs; set-up's own reads (mesh, meta,
	// range scan) are made outside any rank and are left out.
	var readBytes int64
	var readCalls, readMs float64
	for _, s := range ix.byName["pfs.read"] {
		if s.Rank >= 0 {
			readCalls++
			readBytes += s.Bytes
			readMs += s.ms()
		}
	}
	layer["pfs.read_calls"] = readCalls / nf
	layer["pfs.read_mb"] = float64(readBytes) / (1 << 20) / nf
	layer["pfs.read_ms"] = readMs / nf
	layer["mpi.msgs_per_frame"] = msgs / nf
	layer["mpi.mb_per_frame"] = mb / nf
	if spec.tcpBase != nil {
		layer["mpi.tcp_overhead_ms"] = 1000 * (median(secs) - *spec.tcpBase) / animSteps
	}
	layer["runtime.alloc_kb_per_frame"] = allocs / 1024 / nf
	layer["runtime.gc_cycles"] = gcs
	layer["trace.frames_per_s"] = median(fps)
	layer["trace.latency_p50_ms"] = median(lat)
	layer["trace.spans_per_frame"] = float64(len(spans)) / nf
	out.layer = layer
	return out, nil
}

// rendererWait is the mean gap, per renderer and frame, between a
// renderer's Composite end and its next Render start: time the renderers
// spend waiting for input. Gaps across animations are not counted.
func rendererWait(ix spanIndex) float64 {
	type ev struct {
		s      span
		render bool
	}
	byRank := make(map[int][]ev)
	for _, s := range ix.byName["render.step"] {
		byRank[s.Rank] = append(byRank[s.Rank], ev{s, true})
	}
	for _, s := range ix.byName["compositor.step"] {
		byRank[s.Rank] = append(byRank[s.Rank], ev{s, false})
	}
	var gaps []float64
	for _, evs := range byRank {
		sortBy(evs, func(e ev) int64 { return e.s.Start })
		var prev *span
		for i := range evs {
			e := &evs[i]
			if e.render && prev != nil && e.s.Step == prev.Step+1 {
				gaps = append(gaps, float64(e.s.Start-prev.End)/1e6)
			}
			if !e.render {
				prev = &e.s
			}
		}
	}
	return mean(gaps)
}
