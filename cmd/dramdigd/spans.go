// The daemon's span-tree surface: GET /v1/campaigns/{id}/spans serves
// one campaign's trace as a nested tree (rooted at the submitting
// request's server span — or at the client's own span when it sent a
// traceparent), and GET /v1/debug/spans dumps the tracer's recent ring
// for ad-hoc "what has this daemon been doing" inspection. Both read
// the bounded in-memory ring only; spans evicted from it are gone, so
// these are diagnostics, not an archive.

package main

import (
	"net/http"
	"strconv"

	"dramdig/internal/obs"
)

// handleGetCampaignSpans serves the campaign's span tree. 404s mirror
// the campaign endpoints; a daemon running without tracing answers 409
// so clients can tell "no spans yet" from "never any spans".
func (s *server) handleGetCampaignSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	if s.tracer == nil {
		httpError(w, http.StatusConflict, codeConflict,
			"tracing is disabled (-trace-spans 0)")
		return
	}
	traceID := traceIDOf(job.TraceParent)
	if traceID == "" {
		// Pre-tracing queue records (an upgrade with jobs in the WAL)
		// have no trace context; answer an empty tree, not an error.
		writeJSON(w, http.StatusOK, map[string]any{
			"id": id, "trace_id": "", "spans": []any{},
		})
		return
	}
	tid, err := obs.ParseTraceID(traceID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal,
			"campaign %s has corrupt trace ID %q", id, traceID)
		return
	}
	tree := obs.BuildTree(s.tracer.TraceSpans(tid))
	if tree == nil {
		tree = []*obs.TreeNode{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       id,
		"trace_id": traceID,
		"spans":    tree,
	})
}

// handleDebugSpans dumps the most recent finished spans (newest first)
// plus the tracer's lifetime counters. ?limit=N bounds the dump
// (default 100, capped at the ring size by construction).
func (s *server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		httpError(w, http.StatusConflict, codeConflict,
			"tracing is disabled (-trace-spans 0)")
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"limit must be a positive integer, got %q", v)
			return
		}
		limit = n
	}
	spans := s.tracer.Recent(limit)
	if spans == nil {
		spans = []obs.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stats": s.tracer.Stats(),
		"spans": spans,
	})
}
