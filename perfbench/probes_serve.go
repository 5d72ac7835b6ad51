package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"parrot/internal/core"
	"parrot/internal/serve/cache"
	"parrot/internal/workload"
)

// serveProbes re-issues one seeded sequence of repeat requests through
// each serving layer's public function in turn, timing every call from
// here, and stores each layer's median per-call time.
func serveProbes(s *stack, gen *reqGen, p params, o *outcome) {
	reqs := make([]cell, p.probeReqs)
	for i := range reqs {
		reqs[i], _ = gen.next()
	}
	ctx := context.Background()
	bad := 0
	timeEach := func(name string, f func(c cell) bool) float64 {
		us := make([]float64, 0, len(reqs))
		for _, c := range reqs {
			t := time.Now()
			ok := f(c)
			us = append(us, float64(time.Since(t))/1e3)
			if !ok {
				bad++
			}
		}
		o.samples[name] = len(us)
		return median(us)
	}

	o.metrics["client.run_us"] = timeEach("client.run_us", func(c cell) bool {
		resp, err := s.cl.Run(ctx, c.req)
		return err == nil && resp.Disposition == "hit" && resp.ResultDigest == c.resDigest
	})

	bodies := make(map[string][]byte)
	for _, c := range reqs {
		if _, ok := bodies[c.digest]; !ok {
			b, err := json.Marshal(c.req)
			if err != nil {
				bad++
			}
			bodies[c.digest] = b
		}
	}
	h := s.srv.Handler()
	o.metrics["api.handler_us"] = timeEach("api.handler_us", func(c cell) bool {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[c.digest]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code == http.StatusOK
	})
	o.metrics["client.transport_us"] = o.metrics["client.run_us"] - o.metrics["api.handler_us"]

	o.metrics["workload.by_name_us"] = timeEach("workload.by_name_us", func(c cell) bool {
		_, ok := workload.ByName(c.req.App)
		return ok
	})
	o.metrics["experiments.spec_digest_us"] = timeEach("experiments.spec_digest_us", func(c cell) bool {
		return c.spec.Digest() == c.digest
	})
	o.metrics["sched.submit_us"] = timeEach("sched.submit_us", func(c cell) bool {
		res, _, err := s.sched.Submit(ctx, c.spec)
		return err == nil && res != nil
	})
	o.metrics["cache.get_us"] = timeEach("cache.get_us", func(c cell) bool {
		_, ok := s.cache.Get(c.digest)
		return ok
	})

	// cache.put: the same requests' results, fetched first, stored into an
	// empty cache.
	results := make([]*core.Result, len(reqs))
	for i, c := range reqs {
		results[i], _ = s.cache.Get(c.digest)
	}
	fresh, err := cache.New(cache.Config{})
	if err != nil {
		bad++
	} else {
		us := make([]float64, 0, len(reqs))
		for i, c := range reqs {
			if results[i] == nil {
				bad++
				continue
			}
			t := time.Now()
			if err := fresh.Put(c.digest, results[i]); err != nil {
				bad++
			}
			us = append(us, float64(time.Since(t))/1e3)
		}
		o.samples["cache.put_us"] = len(us)
		o.metrics["cache.put_us"] = median(us)
	}

	cs := s.cache.Stats()
	o.metrics["cache.hit_rate"] = cs.HitRate()
	o.metrics["cache.bytes_mb"] = float64(s.cache.Bytes()) / (1 << 20)
	o.check("serve layer probes answer every request", bad == 0, "%d calls failed", bad)
}

// serveProbesFresh measures the serve layers for a workload that runs no
// serving stack of its own: a fresh stack filled with every cell at the
// small budget, as the serve workloads' set-up does. The scheduler counts
// are those of the fill.
func serveProbesFresh(p params, o *outcome) {
	st, err := setupOnce(p, true)
	if st != nil {
		defer func() {
			if err := st.s.close(); err != nil {
				o.check("serve stack shuts down", false, "%v", err)
			}
		}()
	}
	if err != nil {
		o.check("probe stack set-up", false, "%v", err)
		return
	}
	o.check("probe stack cells simulated exactly under the requested digest", true, "%d cells", len(st.cells))
	st.putFill(o)
	o.metrics["sched.hit"] = float64(st.popStats.CacheHits)
	o.metrics["sched.exact"] = float64(st.popStats.Completed - st.popStats.Replayed)
	o.metrics["sched.replayed"] = float64(st.popStats.Replayed)
	serveProbes(st.s, newReqGens(p, st.cells, 0, 2)[0], p, o)
}
