package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public API. The layer is the name's
// first dot-separated component (a package under internal/, or "bench" for
// the benchmark's own phases). Ops counts the operations a loop span covers.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Ops    int     `json:"ops,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer holds spans in memory and writes them when the run ends. A
// disabled tracer records nothing, so the untraced path costs one branch
// per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int // open span IDs
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID
// (0 when tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, recording ops operations.
func (t *tracer) end(id, ops int) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Ops = ops
	t.stack = t.stack[:len(t.stack)-1]
}

// spanCounts returns the number of spans per layer.
func (t *tracer) spanCounts() map[string]int {
	count := map[string]int{}
	for _, s := range t.spans {
		count[s.layer()]++
	}
	return count
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
