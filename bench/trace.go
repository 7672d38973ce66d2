package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into kvclient, or the transaction around it.
// Spans of one transaction share Req; Parent is the ID of the span that
// caused this one (0 for the transaction itself).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records one goroutine's spans in memory; they are written out
// when the run ends. A nil tracer records nothing and costs a nil check,
// which is what the untraced windows use.
type tracer struct {
	lane   int
	origin time.Time
	req    uint64
	spans  []span
}

// maxSpans bounds the in-memory record, shared evenly between the lanes;
// once a lane is full its calls are still timed, so tracing costs the same
// throughout the window.
const maxSpans = 60_000

func newTracers(n int) []*tracer {
	origin := time.Now()
	trs := make([]*tracer, n)
	for i := range trs {
		trs[i] = &tracer{lane: i, origin: origin, spans: make([]span, 0, maxSpans/n)}
	}
	return trs
}

func tracerAt(trs []*tracer, i int) *tracer {
	if trs == nil {
		return nil
	}
	return trs[i]
}

// begin opens a span and returns its ID (0 when not recorded).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	if parent == 0 {
		t.req++
	}
	if len(t.spans) == cap(t.spans) {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req, Lane: t.lane, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	if id > 0 {
		t.spans[id-1].End = now
	}
}

// writeSpans writes every lane's spans to <out>/trace-<workload>.json.
func writeSpans(out, workload string, trs []*tracer) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	var all []span
	for _, t := range trs {
		all = append(all, t.spans...)
	}
	path := filepath.Join(out, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
