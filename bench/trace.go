package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval in the trace file. Times are nanoseconds since
// the tracer was created; parent is the id of the span that caused this one
// (-1 for a root); spans of one request share request_id
// ("<client id>/<seq>").
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	RequestID string `json:"request_id,omitempty"`
}

// Child span names reserved for the in-replica tracing of ROADMAP item 2, so
// that it fills this same file format from inside. The benchmark emits none
// of them: from outside the replica it sees only due, sent and replied.
var reservedSpanNames = []string{"clientio", "batcher", "propose", "durable", "merged", "executed", "replied"}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records one span and returns its id.
func (t *tracer) add(name string, start, end int64, parent int, requestID string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: start, EndNS: end, Parent: parent, RequestID: requestID})
	return id
}

// begin opens a span that end closes; spans added meanwhile can name it as
// their parent.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, t.now(), 0, parent, "")
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].EndNS = t.now()
	t.mu.Unlock()
}

// timed runs f as one span named name under parent and returns its id.
func (t *tracer) timed(name string, parent int, f func()) int {
	if t == nil {
		f()
		return -1
	}
	start := t.now()
	f()
	return t.add(name, start, t.now(), parent, "")
}

// request records a sampled request: a root span from its due time to its
// reply, and a child covering the generator's own share (due → sent). The
// generator's clock started before the tracer's; offset converts.
func (t *tracer) request(kind string, client, seq uint64, due, sent, replied int64) {
	rid := fmt.Sprintf("%d/%d", client, seq)
	root := t.add("request."+kind, due, replied, -1, rid)
	t.add("loadgen.send", due, sent, root, rid)
}

// write stores the trace as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := struct {
		Workload string   `json:"workload"`
		Reserved []string `json:"reserved_child_spans"`
		Spans    []span   `json:"spans"`
	}{workload, reservedSpanNames, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
