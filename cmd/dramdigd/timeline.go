// The per-campaign timeline: GET /v1/campaigns/{id}/timeline assembles
// one chronological view of everything that happened to a campaign,
// across processes. Queue history supplies the durable lifecycle
// (submitted, leased, the workers' per-job progress events,
// expiries, requeues, terminal state — replayed from the WAL, so it
// survives restarts); the tracer's span ring supplies the fine-grained
// execution record, including spans the workers shipped back with their
// completions. Each event names the worker that produced it, so "which
// node did what, when" is one GET.

package main

import (
	"net/http"
	"sort"
	"strconv"

	"dramdig/internal/obs"
)

// timelineEvent is one row of the merged view. Source tells the reader
// which subsystem recorded it: "queue" rows carry a queue event type
// ("submitted", "leased", ...), "span" rows are "span.start" /
// "span.end" with the span's name, ID, and — on end — duration and
// status.
type timelineEvent struct {
	AtUnixNano int64  `json:"at_unix_nano"`
	Source     string `json:"source"`
	Type       string `json:"type"`
	Name       string `json:"name,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	Detail     string `json:"detail,omitempty"`
	SpanID     string `json:"span_id,omitempty"`
	DurationNs int64  `json:"duration_ns,omitempty"`
	Status     string `json:"status,omitempty"`
}

// defaultTimelineLimit bounds the response when the client doesn't ask
// for one; ?limit raises or lowers it. A truncated timeline keeps its
// newest events, the campaign's terminal state among them, and the
// response always reports the total so a truncated read is visible.
const defaultTimelineLimit = 1000

// spanWorker resolves which worker produced a span: its own "worker"
// attribute, or the nearest ancestor's. Coordinator-side spans (HTTP
// handling, queue.wait) have no worker anywhere on their chain and
// resolve to "". The span is memoized as "" before its parent is read,
// so a parent chain that loops back (worker spans naming each other as
// parents) ends there instead of recursing forever.
func spanWorker(sp *obs.SpanData, byID map[obs.SpanID]*obs.SpanData, memo map[obs.SpanID]string) string {
	if w, ok := memo[sp.SpanID]; ok {
		return w
	}
	memo[sp.SpanID] = ""
	w := ""
	for _, a := range sp.Attrs {
		if a.Key == "worker" {
			w = a.Value
			break
		}
	}
	if w == "" && !sp.Parent.IsZero() {
		if parent, ok := byID[sp.Parent]; ok {
			w = spanWorker(parent, byID, memo)
		}
	}
	memo[sp.SpanID] = w
	return w
}

// handleGetCampaignTimeline merges the campaign's queue history with
// its trace's span record into one chronologically ordered list. It
// works without tracing (queue events only) and 404s like the other
// campaign endpoints.
func (s *server) handleGetCampaignTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	limit := defaultTimelineLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"limit must be a positive integer, got %q", v)
			return
		}
		limit = n
	}

	var events []timelineEvent
	for _, ev := range job.History {
		events = append(events, timelineEvent{
			AtUnixNano: ev.AtUnixNano,
			Source:     "queue",
			Type:       ev.Type,
			Worker:     ev.Worker,
			Attempt:    ev.Attempt,
			Detail:     ev.Detail,
		})
	}

	traceID := traceIDOf(job.TraceParent)
	if s.tracer != nil && traceID != "" {
		if tid, err := obs.ParseTraceID(traceID); err == nil {
			spans := s.tracer.TraceSpans(tid)
			byID := make(map[obs.SpanID]*obs.SpanData, len(spans))
			for i := range spans {
				byID[spans[i].SpanID] = &spans[i]
			}
			memo := make(map[obs.SpanID]string, len(spans))
			for i := range spans {
				sp := &spans[i]
				worker := spanWorker(sp, byID, memo)
				events = append(events,
					timelineEvent{
						AtUnixNano: sp.Start.UnixNano(),
						Source:     "span",
						Type:       "span.start",
						Name:       sp.Name,
						Worker:     worker,
						SpanID:     sp.SpanID.String(),
					},
					timelineEvent{
						AtUnixNano: sp.End.UnixNano(),
						Source:     "span",
						Type:       "span.end",
						Name:       sp.Name,
						Worker:     worker,
						SpanID:     sp.SpanID.String(),
						DurationNs: sp.Duration().Nanoseconds(),
						Status:     sp.Status,
					})
			}
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		return events[i].AtUnixNano < events[j].AtUnixNano
	})
	total := len(events)
	truncated := total > limit
	if truncated {
		events = events[total-limit:]
	}
	if events == nil {
		events = []timelineEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        id,
		"trace_id":  traceID,
		"events":    events,
		"total":     total,
		"truncated": truncated,
	})
}
