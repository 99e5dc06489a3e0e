package main

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// digestSeed keys every frame digest of one process; digests are only
// ever compared within the process that took them.
var digestSeed = maphash.MakeSeed()

// digest hashes a frame's exact float32 bit patterns.
func digest(m *img.Image) uint64 {
	if m == nil || len(m.Pix) == 0 {
		return 0
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&m.Pix[0])), 4*len(m.Pix))
	return maphash.Bytes(digestSeed, b)
}

func cloneImage(m *img.Image) *img.Image {
	return &img.Image{W: m.W, H: m.H, Pix: append([]float32(nil), m.Pix...)}
}

// tracedStore wraps the dataset store and records a span per read,
// parented to the span its rank has open (the Fetch that caused it).
type tracedStore struct {
	pfs.Store
	tr *tracer
}

func (s *tracedStore) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	if s.tr == nil {
		return s.Store.ReadAt(c, name, off, buf)
	}
	t0 := now()
	err := s.Store.ReadAt(c, name, off, buf)
	rank := -1
	if c != nil {
		rank = c.Rank()
	}
	s.tr.add(span{Name: "pfs.read", Start: t0, End: now(), Parent: s.tr.parentOf(c),
		Rank: rank, Step: -1, Bytes: int64(len(buf))})
	return err
}

// animation is what one pipeline run of an animation leaves behind,
// gathered by the hooks: when set-up ended (the first Fetch), when each
// step's first Fetch started and its frame was assembled, each frame's
// digest, and copies of the frames a later check compares in full.
type animation struct {
	setupStart int64
	firstFetch atomic.Int64

	mu         sync.Mutex
	fetchStart []int64
	done       []int64
	digests    []uint64
	keep       map[int]*img.Image // steps to copy out -> copy (nil until assembled)
}

func newAnimation(steps int, keep []int) *animation {
	a := &animation{
		setupStart: now(),
		fetchStart: make([]int64, steps),
		done:       make([]int64, steps),
		digests:    make([]uint64, steps),
		keep:       make(map[int]*img.Image, len(keep)),
	}
	for _, t := range keep {
		a.keep[t] = nil
	}
	return a
}

func (a *animation) setupSeconds() float64 {
	return float64(a.firstFetch.Load()-a.setupStart) / 1e9
}

// latencies returns the per-frame latency in ms, from the first Fetch of
// a step to the end of its Assemble, for the frames past the fill.
func (a *animation) latencies(fill int) []float64 {
	var out []float64
	for t := fill; t < len(a.done); t++ {
		out = append(out, float64(a.done[t]-a.fetchStart[t])/1e6)
	}
	return out
}

// hookedWorkload is core's RealWorkload with every stage hook timed from
// outside. It embeds the workload, so the pipeline still finds the
// workload's own optional capabilities (result accounting); each
// override calls straight through and records around the call.
type hookedWorkload struct {
	*core.RealWorkload
	tr   *tracer
	anim *animation
}

func (w *hookedWorkload) Fetch(c *mpi.Comm, t, part, m int) (any, error) {
	t0 := now()
	a := w.anim
	a.firstFetch.CompareAndSwap(0, t0)
	a.mu.Lock()
	if a.fetchStart[t] == 0 || t0 < a.fetchStart[t] {
		a.fetchStart[t] = t0
	}
	a.mu.Unlock()
	if w.tr == nil {
		return w.RealWorkload.Fetch(c, t, part, m)
	}
	id := w.tr.nextID()
	w.tr.enter(c, part, id)
	v, err := w.RealWorkload.Fetch(c, t, part, m)
	w.tr.leave(c, part, id)
	w.tr.add(span{ID: id, Name: "core.fetch", Start: t0, End: now(), Rank: c.Rank(), Step: t})
	return v, err
}

func (w *hookedWorkload) Preprocess(c *mpi.Comm, t, part, m int, fetched any) (any, error) {
	if w.tr == nil {
		return w.RealWorkload.Preprocess(c, t, part, m, fetched)
	}
	t0 := now()
	v, err := w.RealWorkload.Preprocess(c, t, part, m, fetched)
	w.tr.add(span{Name: "core.preprocess", Start: t0, End: now(), Rank: c.Rank(), Step: t})
	return v, err
}

func (w *hookedWorkload) PayloadFor(c *mpi.Comm, t int, prep any, renderer int) (int64, any) {
	if w.tr == nil {
		return w.RealWorkload.PayloadFor(c, t, prep, renderer)
	}
	t0 := now()
	n, v := w.RealWorkload.PayloadFor(c, t, prep, renderer)
	w.tr.add(span{Name: "core.payload", Start: t0, End: now(), Rank: c.Rank(), Step: t, Bytes: n})
	return n, v
}

func (w *hookedWorkload) LICPayload(c *mpi.Comm, t int, prep any) (int64, any, error) {
	if w.tr == nil {
		return w.RealWorkload.LICPayload(c, t, prep)
	}
	t0 := now()
	id := w.tr.nextID()
	w.tr.enter(c, -1, id)
	n, v, err := w.RealWorkload.LICPayload(c, t, prep)
	w.tr.leave(c, -1, id)
	w.tr.add(span{ID: id, Name: "core.lic", Start: t0, End: now(), Rank: c.Rank(), Step: t, Bytes: n})
	return n, v, err
}

func (w *hookedWorkload) Render(c *mpi.Comm, t, r int, pieces []mpi.Message) (any, error) {
	if w.tr == nil {
		return w.RealWorkload.Render(c, t, r, pieces)
	}
	t0 := now()
	v, err := w.RealWorkload.Render(c, t, r, pieces)
	w.tr.add(span{Name: "render.step", Start: t0, End: now(), Rank: c.Rank(), Step: t})
	return v, err
}

func (w *hookedWorkload) Composite(c *mpi.Comm, t, r int, group []int, rnd any) (int64, any, error) {
	if w.tr == nil {
		return w.RealWorkload.Composite(c, t, r, group, rnd)
	}
	t0 := now()
	n, v, err := w.RealWorkload.Composite(c, t, r, group, rnd)
	w.tr.add(span{Name: "compositor.step", Start: t0, End: now(), Rank: c.Rank(), Step: t, Bytes: n})
	return n, v, err
}

// Assemble times the assembly, then digests the finished frame (copying
// it when a check needs it whole) and hands it back to the frame ring, so
// a long animation holds no more frames than the pipeline has in flight.
func (w *hookedWorkload) Assemble(c *mpi.Comm, t int, strips []mpi.Message, lic *mpi.Message) error {
	t0 := now()
	err := w.RealWorkload.Assemble(c, t, strips, lic)
	t1 := now()
	if w.tr != nil {
		w.tr.add(span{Name: "core.assemble", Start: t0, End: t1, Rank: c.Rank(), Step: t})
	}
	if err != nil {
		return err
	}
	frame := w.RealWorkload.Frame(t)
	d := digest(frame)
	a := w.anim
	a.mu.Lock()
	a.done[t] = t1
	a.digests[t] = d
	if _, ok := a.keep[t]; ok && frame != nil {
		a.keep[t] = cloneImage(frame)
	}
	a.mu.Unlock()
	w.RealWorkload.ReleaseFrame(t)
	return nil
}
