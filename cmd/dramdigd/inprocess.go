// Local dispatch: -max-running cluster.Workers inside the daemon, each
// leasing through inProcess — the lease operations of cluster.go called
// directly, with no HTTP and no JSON envelopes — over the daemon's own
// store, registry and tracer. Leases, progress events and fencing are
// therefore the ones remote workers go through; only the end of a lease
// reaches an in-process worker sooner, through the queue's LeaseEnded
// channel in its grant.

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/obs"
	"dramdig/internal/store"
)

// startWorkers starts the in-process workers, cfg.maxRunning of them
// (none under remote dispatch). Idle ones block on the queue's ready
// signal; each grant that leaves work pending re-signals it, so a burst
// of submissions starts as many campaigns as there are idle workers.
func (s *server) startWorkers() {
	cfg := cluster.WorkerConfig{
		Workers: s.cfg.workers,
		Tracing: s.cfg.tracing,
		Logger:  s.log,
		Tracer:  s.tracer,
		Metrics: s.reg,
	}
	for i := 1; i <= s.cfg.maxRunning; i++ {
		c := &inProcess{s: s, name: fmt.Sprintf("local-%d", i)}
		s.cl.addInProcess(c.name)
		w := cluster.NewWorker(c, cfg)
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(s.baseCtx) // returns once the daemon shuts down
		}()
	}
}

// inProcess is the cluster.Coordinator of one in-process worker.
type inProcess struct {
	s    *server
	name string
}

func (c *inProcess) Worker() string { return c.name }

func (c *inProcess) Lease(context.Context) (*cluster.LeaseGrant, bool, error) {
	g, ok, err := c.s.lease(c.name)
	if errors.Is(err, errDraining) {
		return nil, false, nil
	}
	return g, ok, err
}

func (c *inProcess) Ready() <-chan struct{} { return c.s.q.Ready() }

func (c *inProcess) Heartbeat(_ context.Context, id, token string, snap json.RawMessage) error {
	return c.s.heartbeat(id, c.name, token, snap)
}

func (c *inProcess) Complete(_ context.Context, id, token string, report json.RawMessage, spans []obs.SpanData, snap json.RawMessage) error {
	return c.s.complete(id, c.name, token, report, spans, snap)
}

func (c *inProcess) Fail(_ context.Context, id, token, msg string) error {
	return c.s.fail(id, c.name, token, msg)
}

func (c *inProcess) Progress(_ context.Context, id, token string, ev campaign.Event) error {
	return c.s.progress(id, c.name, token, ev)
}

// GetOrCompute keeps the store's single-flight deduplication and its
// store.read/store.persist spans.
func (c *inProcess) GetOrCompute(ctx context.Context, fp string, compute func() (*store.Record, error)) (*store.Record, error) {
	return c.s.st.GetOrCompute(ctx, fp, compute)
}

func (c *inProcess) TraceWriter(_ context.Context, fp string) (io.WriteCloser, error) {
	return c.s.st.TraceWriter(fp)
}
