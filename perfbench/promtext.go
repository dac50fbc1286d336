package main

import (
	"bufio"
	"strconv"
	"strings"
)

// promSamples parses a Prometheus text exposition into series → value,
// where a series is the metric name with its label set exactly as
// written ("dramdig_wal_fsync_seconds_count",
// `dramdig_http_requests_total{route="/v1/healthz"}`).
func promSamples(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces,
		// so split after the closing brace when there is one.
		head, rest := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			head, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			head, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[head] = v
	}
	return out
}

// promDelta is after − before for one series; a series absent before
// counts from zero, as a counter registered lazily does.
func promDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
