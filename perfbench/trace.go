package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"hpsockets/internal/sim"
)

// span is one call from the benchmark into a layer's public API.
// Virtual times are -1 for calls made outside the simulation's clock
// (construction before the kernel runs, parsing, generation).
type span struct {
	ID          int    `json:"id"`
	Parent      int    `json:"parent"`
	Op          int    `json:"op"`
	Name        string `json:"name"`
	HostStartNs int64  `json:"host_start_ns"`
	HostEndNs   int64  `json:"host_end_ns"`
	VirtStartNs int64  `json:"virt_start_ns"`
	VirtEndNs   int64  `json:"virt_end_ns"`
}

// tracer keeps the traced run's spans in memory and writes them out at
// the end. A nil tracer records nothing, so untraced ops pay one nil
// check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, op, parent int, virt sim.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		HostStartNs: int64(time.Since(t.t0)), VirtStartNs: int64(virt), VirtEndNs: -1,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int, virt sim.Time) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.HostEndNs = int64(time.Since(t.t0))
	s.VirtEndNs = int64(virt)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
