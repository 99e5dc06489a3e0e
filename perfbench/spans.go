package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// epoch is the zero of every timestamp the benchmark records.
var epoch = time.Now()

// now returns nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call across a layer boundary: the layer's name, its
// interval, the span that caused it (0 for none), the rank that made the
// call (-1 outside the pipeline), the frame's timestep or the request's
// id, and a size in bytes where the layer moves data.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rank   int    `json:"rank"`
	Step   int    `json:"step"`
	Req    int64  `json:"req,omitempty"`
	Class  string `json:"class,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory for the run and writes them out when it
// ends. A nil *tracer records nothing, which is how untraced runs pay
// only a nil check per boundary.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	open  map[*mpi.Comm]uint64    // open span per rank
	parts map[int]map[uint64]bool // open spans per group part
}

func newTracer() *tracer {
	return &tracer{open: make(map[*mpi.Comm]uint64), parts: make(map[int]map[uint64]bool)}
}

// nextID reserves a span id, so a caller can name a span as the parent
// of others before the span itself is finished.
func (tr *tracer) nextID() uint64 { return tr.ids.Add(1) }

func (tr *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = tr.nextID()
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// enter marks id as the open span of rank c, group part part, so layer
// calls the rank makes below it (store reads) name it as their parent.
func (tr *tracer) enter(c *mpi.Comm, part int, id uint64) {
	tr.mu.Lock()
	tr.open[c] = id
	if tr.parts[part] == nil {
		tr.parts[part] = make(map[uint64]bool)
	}
	tr.parts[part][id] = true
	tr.mu.Unlock()
}

func (tr *tracer) leave(c *mpi.Comm, part int, id uint64) {
	tr.mu.Lock()
	delete(tr.open, c)
	delete(tr.parts[part], id)
	tr.mu.Unlock()
}

// parentOf returns the span rank c has open. A collective read reaches
// the store through the group's sub-communicator, whose rank is the
// reader's part within its group; such a read is parented to the one
// open span of that part, and left without a parent when several groups
// have one open.
func (tr *tracer) parentOf(c *mpi.Comm) uint64 {
	if c == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id, ok := tr.open[c]; ok {
		return id
	}
	if open := tr.parts[c.Rank()]; len(open) == 1 {
		for id := range open {
			return id
		}
	}
	return 0
}

// writeFile writes the spans as JSON lines to path.
func (tr *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a span file written by writeFile.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("span file %s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// spanIndex groups a span file for the per-layer computations.
type spanIndex struct {
	byName   map[string][]span
	childDur map[uint64]int64 // summed child durations per parent
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: make(map[string][]span), childDur: make(map[uint64]int64)}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.childDur[s.Parent] += s.End - s.Start
		}
	}
	return ix
}

// durations returns the named spans' durations in ms.
func (ix spanIndex) durations(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, s.ms())
	}
	return out
}

// selfDurations returns the named spans' self times in ms: each span's
// duration minus the time its child spans cover. Children of one span
// run one after another on the caller's goroutine, so their durations
// add up without overlap.
func (ix spanIndex) selfDurations(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.End-s.Start-ix.childDur[s.ID])/1e6)
	}
	return out
}

// spanPath is where a run's span file goes: under the checkout's build
// directory, one file per workload and seed.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
