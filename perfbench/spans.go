package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call: the harness records one around every call it
// makes into a layer, and the daemon's own tree joins under the client
// span that carried its traceparent. Times are Unix nanoseconds, which
// the harness and a daemon on the same host share.
type span struct {
	TraceID string            `json:"trace_id"`
	ID      string            `json:"span_id"`
	Parent  string            `json:"parent_span_id,omitempty"`
	Name    string            `json:"name"`
	Start   int64             `json:"start_unix_nano"`
	End     int64             `json:"end_unix_nano"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand does not fail on Linux
	}
	return hex.EncodeToString(b)
}

// trace collects the spans of one turnaround: one campaign, or one
// replay. All share one trace ID.
type trace struct {
	id    string
	spans []span
}

func newTrace() *trace { return &trace{id: randomHex(16)} }

// begin opens a span under parent ("" for a root) and returns its index.
func (t *trace) begin(name, parent string) int {
	t.spans = append(t.spans, span{
		TraceID: t.id, ID: randomHex(8), Parent: parent, Name: name,
		Start: time.Now().UnixNano(),
	})
	return len(t.spans) - 1
}

func (t *trace) end(i int) { t.spans[i].End = time.Now().UnixNano() }

// add records a finished span whose times were taken elsewhere.
func (t *trace) add(name, parent string, start, end int64) string {
	id := randomHex(8)
	t.spans = append(t.spans, span{TraceID: t.id, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// traceparent renders the W3C header naming span i as the caller.
func (t *trace) traceparent(i int) string {
	return fmt.Sprintf("00-%s-%s-01", t.id, t.spans[i].ID)
}

// selfTimes attributes every instant covered by the spans to exactly one
// of them, the deepest span active at that instant (ties go to the one
// that started last), and returns each span's attributed nanoseconds.
// For a span whose children run inside it this is its duration minus the
// union of its children, however those overlap one another. It also
// handles concurrency across branches, where a client span waits on
// daemon work parented elsewhere: the daemon's deeper spans win, so the
// waiting is not counted twice and the self times add up to the union.
func selfTimes(spans []span) map[string]int64 {
	byID := make(map[string]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	depth := make([]int, len(spans))
	for i := range spans {
		d, p := 0, spans[i].Parent
		for seen := 0; p != "" && seen < len(spans); seen++ {
			j, ok := byID[p]
			if !ok {
				break
			}
			d++
			p = spans[j].Parent
		}
		depth[i] = d
	}
	var cuts []int64
	for _, s := range spans {
		if s.End > s.Start {
			cuts = append(cuts, s.Start, s.End)
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	self := make(map[string]int64, len(spans))
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		best := -1
		for i, s := range spans {
			if s.Start > lo || s.End < hi {
				continue
			}
			if best < 0 || depth[i] > depth[best] ||
				(depth[i] == depth[best] && s.Start > spans[best].Start) {
				best = i
			}
		}
		if best >= 0 {
			self[spans[best].ID] += hi - lo
		}
	}
	return self
}

// treeNode is the daemon's span tree shape (GET /v1/campaigns/{id}/spans).
type treeNode struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	Parent     string            `json:"parent_span_id"`
	Name       string            `json:"name"`
	StartNs    int64             `json:"start_unix_nano"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs"`
	Children   []*treeNode       `json:"children"`
}

// flattenTree appends the daemon tree's spans to out.
func flattenTree(nodes []*treeNode, out []span) []span {
	for _, n := range nodes {
		out = append(out, span{
			TraceID: n.TraceID, ID: n.SpanID, Parent: n.Parent, Name: n.Name,
			Start: n.StartNs, End: n.StartNs + n.DurationNs, Attrs: n.Attrs,
		})
		out = flattenTree(n.Children, out)
	}
	return out
}

// writeSpans dumps every kept span as JSON lines.
func writeSpans(path string, traces []*trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range traces {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
