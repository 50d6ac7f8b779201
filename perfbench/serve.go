package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bulkpim"
	"bulkpim/internal/serve"
	"bulkpim/internal/system"
)

// serveWorkload drives an in-process daemon (bulkpim.NewServer with
// local workers) over a result cache pre-warmed with fig3/smoke. Two
// clients run a closed loop: each sends its next request when the
// previous one has settled. Per client and round, request i is
//
//	i%10 == 9: a fig3/smoke submit at a fresh seed (a cold plan that
//	           simulates and writes back: the miss path);
//	i%5 == 2:  GET /v1/artifacts/fig3, a render from the cache;
//	otherwise: a fig3/smoke submit at the default seed (a cache hit).
type serveWorkload struct {
	c         config
	perClient int

	gen    int // set-ups so far, naming each one's cache directory
	cache  *bulkpim.ResultCache
	srv    *bulkpim.Server
	served chan error
	base   string
	client *http.Client
	golden string // the fig3 report the artifact must render

	nextSeed uint64
	warm     map[string]system.Result // the pre-warmed fig3/smoke results

	// Of the traced rounds:
	byClass  map[string][]time.Duration
	submits  int
	inSubmit int

	// Since the last set-up:
	missJobs  []settledJob
	fps       map[uint64]map[string]string // seed -> key -> fingerprint
	manifests []time.Duration
}

type settledJob struct {
	seed    uint64
	results map[string]system.Result
}

const (
	missEvery  = 10
	artEvery   = 5
	serveScale = "smoke"
)

func newServeWorkload(c config) workload {
	s := &serveWorkload{c: c, perClient: 50, golden: filepath.Join(c.root, "testdata", "fig3_smoke.golden")}
	if c.tiny {
		s.perClient = 10
	}
	// Fresh seeds never collide with the default seed or another run's.
	s.nextSeed = 1_000_000 + c.seed*1_000_000
	return s
}

func (s *serveWorkload) setupReps() int { return 9 }

// setup starts a daemon over a fresh result cache and pre-warms it by
// submitting fig3/smoke at the default seed.
func (s *serveWorkload) setup(tr *tracer) error {
	s.close()
	s.gen++
	dir := filepath.Join(s.c.workDir(), fmt.Sprintf("cache-%d", s.gen))
	var err error
	tr.do("resultcache.Open", 0, "", func() { s.cache, err = bulkpim.OpenResultCache(dir) })
	if err != nil {
		return err
	}
	tr.do("bulkpim.NewServer", 0, "", func() {
		s.srv, err = bulkpim.NewServer(bulkpim.Options{Cache: s.cache},
			bulkpim.ServerOptions{Local: true, Workers: serveClients})
	})
	if err != nil {
		s.cache.Close()
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve() }()
	s.base = "http://" + s.srv.Addr()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: time.Minute}

	st, _, err := s.submit(tr, 0, "warm", defaultSeed)
	if err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	if st.Status != "done" || len(st.Results) == 0 {
		return fmt.Errorf("pre-warm: job %s %s", st.ID, st.Status)
	}
	s.warm = st.Results
	s.byClass = map[string][]time.Duration{}
	s.submits, s.inSubmit = 0, 0
	s.missJobs = nil
	s.fps = map[uint64]map[string]string{}
	s.manifests = nil
	return nil
}

// submit posts a fig3/smoke job and polls until it settles. It reports
// whether the submit response had already settled it.
func (s *serveWorkload) submit(tr *tracer, parent int, req string, seed uint64) (serve.JobStatus, bool, error) {
	var st serve.JobStatus
	body := fmt.Sprintf(`{"experiment":"fig3","scale":%q,"seed":%d}`, serveScale, seed)
	var err error
	tr.do("http.submit", parent, req, func() {
		err = s.call(http.MethodPost, "/v1/jobs", body, &st)
	})
	if err != nil {
		return st, false, err
	}
	inSubmit := st.Status != "pending"
	for st.Status == "pending" {
		time.Sleep(time.Millisecond)
		tr.do("http.poll", parent, req, func() { err = s.call(http.MethodGet, "/v1/jobs/"+st.ID, "", &st) })
		if err != nil {
			return st, false, err
		}
	}
	if st.Status != "done" {
		return st, inSubmit, fmt.Errorf("job %s %s: %v", st.ID, st.Status, st.Errors)
	}
	return st, inSubmit, nil
}

// call sends one request and decodes a 200 response into out.
func (s *serveWorkload) call(method, path, body string, out any) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// clientLog is one client's share of a round.
type clientLog struct {
	lat       []time.Duration
	byClass   map[string][]time.Duration
	submits   int
	inSubmit  int
	missJobs  []settledJob
	errs      []string
	attempted int
}

func (s *serveWorkload) round(tr *tracer, o *outcome) []time.Duration {
	rid := tr.begin("round", 0, "")
	defer tr.end(rid)
	seeds := make([][]uint64, serveClients)
	for c := range seeds {
		for i := 0; i < s.perClient/missEvery; i++ {
			seeds[c] = append(seeds[c], s.nextSeed)
			s.nextSeed++
		}
	}
	logs := make([]clientLog, serveClients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client1(tr, rid, c, seeds[c], &logs[c])
		}()
	}
	wg.Wait()
	var lat []time.Duration
	for _, l := range logs {
		lat = append(lat, l.lat...)
		o.attempted += l.attempted
		for _, e := range l.errs {
			o.fail("%s", e)
		}
		if tr != nil {
			for k, v := range l.byClass {
				s.byClass[k] = append(s.byClass[k], v...)
			}
			s.submits += l.submits
			s.inSubmit += l.inSubmit
		}
		s.missJobs = append(s.missJobs, l.missJobs...)
	}
	return lat
}

// client1 is one closed-loop client's requests for a round.
func (s *serveWorkload) client1(tr *tracer, parent, c int, seeds []uint64, l *clientLog) {
	l.byClass = map[string][]time.Duration{}
	for i := 0; i < s.perClient; i++ {
		req := fmt.Sprintf("c%d-%d", c, i)
		id := tr.begin("request", parent, req)
		t := time.Now()
		class, err := s.request(tr, id, req, i, seeds, l)
		d := time.Since(t)
		tr.end(id)
		l.attempted++
		if err != nil {
			l.errs = append(l.errs, fmt.Sprintf("%s %s: %v", class, req, err))
			continue
		}
		l.lat = append(l.lat, d)
		l.byClass[class] = append(l.byClass[class], d)
	}
}

func (s *serveWorkload) request(tr *tracer, parent int, req string, i int, seeds []uint64, l *clientLog) (string, error) {
	switch {
	case i%missEvery == missEvery-1:
		seed := seeds[i/missEvery]
		st, inSubmit, err := s.submit(tr, parent, req, seed)
		l.submits++
		if inSubmit {
			l.inSubmit++
		}
		if err == nil {
			l.missJobs = append(l.missJobs, settledJob{seed: seed, results: st.Results})
		}
		return "miss", err
	case i%artEvery == 2:
		var st serve.ArtifactStatus
		var err error
		tr.do("http.artifact", parent, req, func() {
			err = s.call(http.MethodGet, "/v1/artifacts/fig3?scale="+serveScale, "", &st)
		})
		if err == nil && (!st.Ready || st.Output == "") {
			err = fmt.Errorf("artifact not ready: %d/%d keys", st.Settled, st.Keys)
		}
		return "artifact", err
	default:
		st, inSubmit, err := s.submit(tr, parent, req, defaultSeed)
		l.submits++
		if inSubmit {
			l.inSubmit++
		}
		if err == nil && st.Cached != st.Points {
			err = fmt.Errorf("pre-warmed job %s served %d of %d points from the cache", st.ID, st.Cached, st.Points)
		}
		return "hit", err
	}
}

// fingerprints plans fig3/smoke at seed through the shipped planner.
func (s *serveWorkload) fingerprints(tr *tracer, seed uint64) (map[string]string, error) {
	if fps, ok := s.fps[seed]; ok {
		return fps, nil
	}
	t := time.Now()
	var jobs []bulkpim.PlannedJob
	var err error
	tr.do("bulkpim.Manifest", 0, "", func() {
		jobs, err = bulkpim.Manifest("fig3", bulkpim.Options{Scale: serveScale, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	s.manifests = append(s.manifests, time.Since(t))
	fps := map[string]string{}
	for _, j := range jobs {
		fps[j.Key] = j.Fingerprint
	}
	s.fps[seed] = fps
	return fps, nil
}

// traceExtras times result-cache writes — storing every settled miss
// result into a scratch cache — and plans each miss seed.
func (s *serveWorkload) traceExtras(tr *tracer, o *outcome) error {
	scratch, err := bulkpim.OpenResultCache(filepath.Join(s.c.workDir(), "store-probe"))
	if err != nil {
		return err
	}
	var stores []time.Duration
	for _, j := range s.missJobs {
		fps, err := s.fingerprints(tr, j.seed)
		if err != nil {
			scratch.Close()
			return err
		}
		for k, r := range j.results {
			t := time.Now()
			tr.do("resultcache.Store", 0, "", func() { err = scratch.Store(k, fps[k], r) })
			if err != nil {
				scratch.Close()
				return err
			}
			stores = append(stores, time.Since(t))
		}
	}
	o.values["resultcache.store_us"] = median(seconds(stores)) * 1e6
	return scratch.Close()
}

func (s *serveWorkload) layerMetrics(tr *tracer, o *outcome, rounds int) {
	v := o.values
	v["resultcache.open_s"] = tr.total("resultcache.Open").Seconds()
	v["resultcache.hit_ratio"] = s.cache.Stats().HitRate()
	v["serve.hit_latency_p50_ms"] = median(millis(s.byClass["hit"]))
	v["serve.artifact_latency_p50_ms"] = median(millis(s.byClass["artifact"]))
	v["serve.miss_latency_p50_ms"] = median(millis(s.byClass["miss"]))
	o.samples["serve.miss_latency_p50_ms"] = len(s.byClass["miss"])
	if s.submits > 0 {
		v["serve.settled_in_submit_ratio"] = float64(s.inSubmit) / float64(s.submits)
	}
	v["plan.manifest_s"] = median(seconds(s.manifests))
	var stats serve.StatsReport
	if err := s.call(http.MethodGet, "/v1/stats", "", &stats); err != nil {
		o.fail("GET /v1/stats: %v", err)
	} else if stats.Fleet != nil {
		v["coord.retries"] = float64(stats.Fleet.Retried)
	}
}

// verify reads every settled fingerprint back through
// GET /v1/results/{fp} and requires it to equal both the cache entry
// and the job's own result; re-runs one miss point, chosen by the
// seed, through the shipped YCSB entry point; and requires the fig3
// artifact to render the golden report.
func (s *serveWorkload) verify(o *outcome) {
	jobs := append([]settledJob{{seed: defaultSeed, results: s.warm}}, s.missJobs...)
	var lookups []time.Duration
	for _, j := range jobs {
		fps, err := s.fingerprints(nil, j.seed)
		if err != nil {
			o.fail("plan fig3 seed %d: %v", j.seed, err)
			continue
		}
		for key, r := range j.results {
			fp, ok := fps[key]
			if !ok {
				o.fail("seed %d: settled key %s is not in the plan", j.seed, key)
				continue
			}
			var served system.Result
			if err := s.call(http.MethodGet, "/v1/results/"+fp, "", &served); err != nil {
				o.fail("%v", err)
				continue
			}
			t := time.Now()
			cached, ok := s.cache.LookupFingerprint(fp)
			lookups = append(lookups, time.Since(t))
			switch {
			case !ok:
				o.fail("seed %d %s: fingerprint %s not in the cache", j.seed, key, fp)
			case digest(served) != digest(cached) || digest(served) != digest(r):
				o.fail("seed %d %s: served, cached and job results differ", j.seed, key)
			}
		}
	}
	o.values["resultcache.lookup_us"] = median(seconds(lookups)) * 1e6

	if len(s.missJobs) > 0 {
		j := s.missJobs[s.c.seed%uint64(len(s.missJobs))]
		if err := checkShipped(j); err != nil {
			o.fail("%v", err)
		}
	}

	var st serve.ArtifactStatus
	want, err := os.ReadFile(s.golden)
	if err != nil {
		o.fail("fig3 golden: %v", err)
	} else if err := s.call(http.MethodGet, "/v1/artifacts/fig3?scale="+serveScale, "", &st); err != nil {
		o.fail("%v", err)
	} else if strings.TrimSpace(st.Output) != strings.TrimSpace(string(want)) {
		o.fail("fig3 artifact differs from %s", s.golden)
	}
}

// checkShipped re-runs one point of a settled miss job, chosen by its
// seed, through bulkpim.RunYCSB with fig3/smoke's parameters.
func checkShipped(j settledJob) error {
	keys := make([]string, 0, len(j.results))
	for k := range j.results {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return errors.New("settled miss job without results")
	}
	sort.Strings(keys)
	key := keys[j.seed%uint64(len(keys))]
	r := j.results[key]
	{
		model, ok := strings.CutPrefix(key, "ycsb/records=100000/model=")
		if !ok {
			return fmt.Errorf("seed %d: unexpected fig3 key %s", j.seed, key)
		}
		m, err := bulkpim.ParseModel(model)
		if err != nil {
			return err
		}
		p := bulkpim.YCSBParams(100_000)
		p.Operations = 4
		p.Seed = j.seed
		cfg := bulkpim.DefaultConfig()
		cfg.Model = m
		want, err := bulkpim.RunYCSB(bulkpim.NewYCSB(p), cfg)
		if err != nil {
			return fmt.Errorf("seed %d %s: shipped entry point: %w", j.seed, key, err)
		}
		if digest(want) != digest(r) {
			return fmt.Errorf("seed %d %s: served result differs from the shipped entry point's", j.seed, key)
		}
	}
	return nil
}

func (s *serveWorkload) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	if err := <-s.served; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon:", err)
	}
	s.client.CloseIdleConnections()
	s.cache.Close()
	s.srv = nil
}
