package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// Tracing lives entirely in the benchmark: a traced run wraps the daemon's
// handler (to carry the client's operation id into the request context)
// and its backend (to time each Resolve and Apply). Untraced runs pass the
// bare handler and backend, so the difference between the two runs is the
// tracing overhead.

// opHeader carries the client's operation id; spans of one operation share
// it.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// span is one timed call at a layer boundary.
type span struct {
	name       string
	op         int64
	start, end time.Time
}

// recorder keeps a run's spans in memory.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name string, ctx context.Context, start time.Time) {
	op, _ := ctx.Value(opKey{}).(int64)
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, op: op, start: start, end: end})
	r.mu.Unlock()
}

// withOpID moves the operation id header into the request context.
func withOpID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
			r = r.WithContext(context.WithValue(r.Context(), opKey{}, id))
		}
		h.ServeHTTP(w, r)
	})
}

// tracedPool is the timing wrapper handed to serve.New in a traced run.
// Embedding keeps the pool's Stats and Rebuild visible to the daemon, so
// it serves the wrapper exactly as it serves the bare pool.
type tracedPool struct {
	*resolve.PoolResolver
	rec *recorder
}

func (t tracedPool) Resolve(ctx context.Context, req resolve.Request) (*resolve.Result, error) {
	start := time.Now()
	defer t.rec.add("resolve.call", ctx, start)
	return t.PoolResolver.Resolve(ctx, req)
}

func (t tracedPool) Apply(d *resolve.Delta) (resolve.Epoch, error) {
	start := time.Now()
	defer t.rec.add("resolve.apply", context.Background(), start)
	return t.PoolResolver.Apply(d)
}
