package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"

	"muzzle"
	"muzzle/internal/bench"
	"muzzle/internal/ckey"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/qasm"
	"muzzle/internal/service"
	"muzzle/internal/sim"
	"muzzle/internal/store"
)

// Offered load of daemon-jobs: an open loop at jobsRate submissions per
// second, hotShare of them drawn Zipf(zipfS) from hotCircuits circuits and
// the rest unique, so the compiler runs only on the unique share and the
// cache, single-flight, journal and HTTP layers carry the rest. The mix is
// an assumption, not a measurement: no recorded muzzled traffic exists to
// derive the rate, the repeat share or the popularity skew from.
//
// Two senders each send every other job over their own connection, so a
// sender whose previous POST has not returned sends late. That delay is
// the daemon's: it is charged to the job, whose latency runs from when it
// was due. The generator's own lateness is what remains: the time from
// when a job was due, or from the sender's previous reply if that came
// later, to the send. A run whose generator lateness p99 exceeds maxLate,
// one sender's interval between jobs, fell behind its schedule, does not
// measure the offered load, and fails. The senders share the daemon's two
// Ps, so a sender whose timer fires while both run compiles waits for the
// scheduler to preempt one, which it does after 10 ms; on a 2-CPU host
// that puts the p99 at 7-13 ms.
const (
	jobsRate    = 100
	hotCircuits = 32
	hotShare    = 0.8
	zipfS       = 1.2
	maxLate     = 2 * time.Second / jobsRate
)

// daemonJobs is the daemon-jobs workload: POST /v1/jobs with inline QASM
// against an in-process muzzled — service.New behind httptest with two
// workers, a memory cache, a flight group and a journal that fsyncs into
// a temporary directory — from two sender goroutines over at most two
// connections. Each job is timed from when it was due to its
// JobView.Finished. The journal keeps muzzled's default options, so it
// compacts every 4096 appends (three per job): once in a 20-s run, where
// it holds the journal lock, and with it admission, for 40-300 ms. The
// jobs caught behind it, 2-4% of a run's, are its slowest, so the whole
// run's p95 and p99 read the length of that one stall.
type daemonJobs struct {
	cfg     config
	rng     *rand.Rand
	zipf    *rand.Zipf
	hot     []jobBody
	uniques int

	dir     string
	journal *store.Journal
	mgr     *service.Manager
	srv     *httptest.Server
	client  *http.Client

	// results holds the first result returned for each distinct body;
	// every later job of that body must return the same.
	results  map[string]*eval.ResultJSON
	bodies   map[string]jobBody
	checkErr error
}

type jobBody struct {
	name, src string
	payload   []byte
}

// jobRun is one submitted job.
type jobRun struct {
	body      jobBody
	due, sent time.Time
	replied   time.Time
	// late is the generator's own lateness (see maxLate).
	late   time.Duration
	status int
	id     string
	view   service.JobView
}

func newDaemonJobs(cfg config) workload { return &daemonJobs{cfg: cfg} }

// circuitSize is the size of the k-th circuit a run makes (the hot set
// first, then the unique ones): qubits cycle through 16-47 and two-qubit
// gates through 100-499 in a fixed pattern, so every seed offers the same
// amount of work and the seed picks only each circuit's gates, which
// circuits are popular and where the unique jobs fall.
func (w *daemonJobs) circuitSize(k int) (qubits, gates int) {
	if w.cfg.small {
		return 18 + k%5, 20 + (k*37)%40
	}
	return 16 + k%32, 100 + (k*397)%400
}

func (w *daemonJobs) newBody(name string, rng *rand.Rand) (jobBody, error) {
	q, g := w.circuitSize(len(w.bodies))
	src, err := qasm.WriteString(bench.Random(q, g, rng.Int63()))
	if err != nil {
		return jobBody{}, err
	}
	payload, err := json.Marshal(service.Request{Name: name, QASM: src})
	if err != nil {
		return jobBody{}, err
	}
	b := jobBody{name: name, src: src, payload: payload}
	w.bodies[name] = b
	return b, nil
}

func (w *daemonJobs) setup(context.Context) error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.results = map[string]*eval.ResultJSON{}
	w.bodies = map[string]jobBody{}
	nHot := hotCircuits
	if w.cfg.small {
		nHot = 4
	}
	w.zipf = rand.NewZipf(w.rng, zipfS, 1, uint64(nHot-1))
	// The hot set is the workload's reference input: the same for every
	// seed, so the quality metrics, computed over it, are exact. The seed
	// picks which hot circuits are popular, the draws, and the unique
	// circuits.
	ref := rand.New(rand.NewSource(referenceSeed))
	for i := 0; i < nHot; i++ {
		b, err := w.newBody(fmt.Sprintf("hot-%02d", i), ref)
		if err != nil {
			return err
		}
		w.hot = append(w.hot, b)
	}
	w.rng.Shuffle(nHot, func(i, j int) { w.hot[i], w.hot[j] = w.hot[j], w.hot[i] })

	dir, err := os.MkdirTemp("", "muzzlebench-jobs-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.journal, err = store.Open(dir, store.Options{}); err != nil {
		return err
	}
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 128})
	if err != nil {
		return err
	}
	w.mgr = service.New(service.Config{
		Workers:      2,
		JobRetention: 1 << 20,
		Cache:        cache,
		Flight:       muzzle.NewFlight(),
		Journal:      w.journal,
	})
	w.srv = httptest.NewServer(w.mgr.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return nil
}

// warmup submits every hot body once, plus a few unique ones, so the
// timed phases start with the hot set cached and every layer exercised.
func (w *daemonJobs) warmup(ctx context.Context) error {
	runs := make([]*jobRun, 0, len(w.hot)+4)
	for _, b := range w.hot {
		runs = append(runs, &jobRun{body: b})
	}
	for i := 0; i < 4; i++ {
		b, err := w.newBody(fmt.Sprintf("warm-%d", i), w.rng)
		if err != nil {
			return err
		}
		runs = append(runs, &jobRun{body: b})
	}
	for _, r := range runs {
		r.due = time.Now()
		w.submit(ctx, r)
	}
	if err := w.await(runs); err != nil {
		return err
	}
	for _, r := range runs {
		if !w.record(r) {
			return fmt.Errorf("warm-up job %s: status %d, state %s: %s", r.body.name, r.status, r.view.State, r.view.Error)
		}
	}
	return nil
}

// submit POSTs one job and records the reply.
func (w *daemonJobs) submit(ctx context.Context, r *jobRun) {
	r.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.srv.URL+"/v1/jobs", bytes.NewReader(r.body.payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	r.replied = time.Now()
	if err != nil {
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	var view struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted && json.NewDecoder(resp.Body).Decode(&view) == nil {
		r.id = view.ID
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
}

// await waits until every accepted job is terminal and keeps its view.
func (w *daemonJobs) await(runs []*jobRun) error {
	deadline := time.Now().Add(2 * time.Minute)
	pending := slices.Clone(runs)
	for len(pending) > 0 {
		next := pending[:0]
		for _, r := range pending {
			if r.id == "" {
				continue
			}
			v, err := w.mgr.Get(r.id)
			if err != nil {
				return fmt.Errorf("job %s: %w", r.id, err)
			}
			if v.State.Terminal() {
				r.view = v
			} else {
				next = append(next, r)
			}
		}
		pending = next
		if len(pending) > 0 {
			if time.Now().After(deadline) {
				return errors.New("jobs still running two minutes after the last submission")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// record checks a finished job and keeps its result; it reports whether
// the job succeeded.
func (w *daemonJobs) record(r *jobRun) bool {
	if r.status != http.StatusAccepted || r.view.State != service.StateDone || len(r.view.Results) != 1 || r.view.Finished == nil {
		return false
	}
	res := r.view.Results[0]
	if prev, ok := w.results[r.body.name]; !ok {
		w.results[r.body.name] = res
	} else if !sameResult(prev, res) {
		w.checkErr = fmt.Errorf("job body %s returned two different results", r.body.name)
	}
	return true
}

// sameResult compares two evaluation results, ignoring wall-clock compile
// time.
func sameResult(a, b *eval.ResultJSON) bool {
	strip := func(r *eval.ResultJSON) eval.ResultJSON {
		c := *r
		c.Outcomes = map[string]*eval.OutcomeJSON{}
		for k, o := range r.Outcomes {
			oc := *o
			oc.CompileTimeNS = 0
			c.Outcomes[k] = &oc
		}
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

func (w *daemonJobs) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	n := max(1, int(jobsRate*d.Seconds()))
	unique := make([]bool, n)
	for _, i := range w.rng.Perm(n)[:int(float64(n)*(1-hotShare)+0.5)] {
		unique[i] = true
	}
	runs := make([]*jobRun, n)
	seen := map[string]bool{}
	for i := range runs {
		var b jobBody
		if !unique[i] {
			b = w.hot[w.zipf.Uint64()]
		} else {
			var err error
			if b, err = w.newBody(fmt.Sprintf("u%d", w.uniques), w.rng); err != nil {
				return phase{}, err
			}
			w.uniques++
		}
		runs[i] = &jobRun{body: b}
		seen[b.name] = true
	}
	before := w.mgr.MetricsSnapshot()

	// The first job is due shortly after the senders start, so they are
	// waiting, not late, when the schedule begins.
	t0 := time.Now().Add(5 * time.Millisecond)
	interval := time.Second / jobsRate
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Time // when this sender's previous reply came
			for i := g; i < n; i += 2 {
				r := runs[i]
				r.due = t0.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(r.due))
				w.submit(ctx, r)
				if r.due.After(free) {
					free = r.due
				}
				r.late = r.sent.Sub(free)
				free = r.replied
			}
		}()
	}
	wg.Wait()
	if err := w.await(runs); err != nil {
		return phase{}, err
	}
	after := w.mgr.MetricsSnapshot()

	var ph phase
	var lat, late, submit, wait, run []float64
	last := t0
	for _, r := range runs {
		ph.ops++
		late = append(late, ms(r.late))
		if !w.record(r) {
			ph.failed++
			continue
		}
		fin := *r.view.Finished
		lat = append(lat, ms(fin.Sub(r.due)))
		submit = append(submit, ms(r.replied.Sub(r.sent)))
		wait = append(wait, ms(r.view.Started.Sub(r.view.Created)))
		run = append(run, ms(fin.Sub(*r.view.Started)))
		if fin.After(last) {
			last = fin
		}
		if tr != nil {
			root := tr.newID()
			tr.add(root, "gen.late", r.id, r.sent.Add(-r.late), r.sent)
			tr.add(root, "service.submit", r.id, r.sent, r.replied)
			tr.add(root, "service.queue_wait", r.id, r.view.Created, *r.view.Started)
			tr.add(root, "service.run", r.id, *r.view.Started, fin)
			// A cache hit can finish before its 202 reaches the client, so
			// the job's span ends at whichever comes last.
			end := fin
			if r.replied.After(end) {
				end = r.replied
			}
			tr.record(root, 0, "job", r.id, r.due, end)
		}
	}
	ph.elapsed = last.Sub(t0)
	ph.p50, ph.p90 = percentile(lat, 0.5), percentile(lat, 0.9)
	latP99 := percentile(late, 0.99)
	if latP99 > ms(maxLate) {
		w.checkErr = fmt.Errorf("generator ran late: p99 %.2f ms > %s, so the run did not offer %d jobs/s", latP99, maxLate, jobsRate)
	}

	hits := float64(after.Cache.Hits - before.Cache.Hits)
	lookups := hits + float64(after.Cache.Misses-before.Cache.Misses)
	ph.layer = map[string]float64{
		"service.job_ms_p95":    percentile(lat, 0.95),
		"service.job_ms_p99":    percentile(lat, 0.99),
		"gen.late_ms_p99":       latP99,
		"service.rejected":      float64(after.AdmissionRejected - before.AdmissionRejected),
		"store.appends_per_job": float64(after.Store.Appends-before.Store.Appends) / float64(n),
		"store.wal_bytes":       float64(after.Store.WALBytes),
		"store.compactions":     float64(after.Store.Compactions - before.Store.Compactions),
		"flight.executions":     float64(after.Flight.Executions - before.Flight.Executions),
		"flight.coalesced":      float64(after.Flight.Coalesced - before.Flight.Coalesced),
		"cache.lookups":         lookups,
		"cache.disk_entries":    float64(after.Cache.DiskEntries),
		"cache.disk_errors":     float64(after.Cache.DiskErrors - before.Cache.DiskErrors),
	}
	if lookups > 0 {
		ph.layer["cache.hit_ratio"] = hits / lookups
	}
	if tr != nil {
		ph.layer["service.submit_ms_p50"] = percentile(submit, 0.5)
		ph.layer["service.submit_ms_p99"] = percentile(submit, 0.99)
		ph.layer["service.queue_wait_ms_p50"] = percentile(wait, 0.5)
		ph.layer["service.queue_wait_ms_p99"] = percentile(wait, 0.99)
		ph.layer["service.run_ms_p50"] = percentile(run, 0.5)
		ph.layer["service.run_ms_p99"] = percentile(run, 0.99)
		parse, key := w.frontEnd(tr, slices.Sorted(maps.Keys(seen)))
		ph.layer["qasm.parse_ms_p50"] = percentile(parse, 0.5)
		ph.layer["ckey.key_us_p50"] = 1000 * percentile(key, 0.5)
	}
	return ph, nil
}

// frontEnd times the request front end the daemon runs on every job —
// parsing the QASM body and hashing the cache key — once per distinct
// body of the phase.
func (w *daemonJobs) frontEnd(tr *tracer, names []string) (parse, key []float64) {
	cfg := machine.PaperL6()
	compilers := eval.DefaultCompilers()
	params := sim.DefaultParams()
	for _, name := range names {
		t0 := time.Now()
		c, err := qasm.Parse(name, w.bodies[name].src)
		t1 := time.Now()
		tr.add(0, "qasm.parse", name, t0, t1)
		if err != nil {
			w.checkErr = fmt.Errorf("parse %s: %w", name, err)
			continue
		}
		ckey.Key(c, cfg, compilers, params)
		t2 := time.Now()
		tr.add(0, "ckey.key", name, t1, t2)
		parse = append(parse, ms(t1.Sub(t0)))
		key = append(key, ms(t2.Sub(t1)))
	}
	return parse, key
}

// quality sums the hot set's outcomes for the quality metrics and hashes
// every distinct body's for the checksum.
func (w *daemonJobs) quality() quality {
	hot := map[string]bool{}
	for _, b := range w.hot {
		hot[b.name] = true
	}
	var q quality
	var gains []float64
	var parts []any
	for _, name := range slices.Sorted(maps.Keys(w.results)) {
		r := w.results[name]
		base, opt := r.Outcomes["baseline"], r.Outcomes["optimized"]
		parts = append(parts, name, base.Shuttles, opt.Shuttles, base.LogFidelity, opt.LogFidelity)
		if hot[name] {
			q.optShuttles += opt.Shuttles
			gains = append(gains, log10Gain(opt.LogFidelity, base.LogFidelity))
		}
	}
	q.fig8 = mean(gains)
	q.checksum = checksum(parts...)
	return q
}

// check re-evaluates every distinct body in process — parse, then
// eval.RunCircuit with no cache — and compares with what the daemon
// returned.
func (w *daemonJobs) check(ctx context.Context) error {
	if w.checkErr != nil {
		return w.checkErr
	}
	names := slices.Sorted(maps.Keys(w.results))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(names); i += 2 {
				name := names[i]
				c, err := qasm.Parse(name, w.bodies[name].src)
				if err != nil {
					errs[i] = err
					continue
				}
				ref, err := eval.RunCircuit(ctx, c, eval.DefaultOptions())
				if err != nil {
					errs[i] = fmt.Errorf("reference %s: %w", name, err)
					continue
				}
				if !sameResult(eval.EncodeResult(ref), w.results[name]) {
					errs[i] = fmt.Errorf("job body %s: daemon result differs from an in-process evaluation", name)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *daemonJobs) close() {
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.srv.Close()
	}
	if w.mgr != nil {
		w.mgr.Close()
	}
	if w.journal != nil {
		w.journal.Close() //nolint:errcheck // the directory is deleted next
	}
	if w.dir != "" {
		os.RemoveAll(w.dir) //nolint:errcheck // best-effort cleanup of a temporary directory
	}
}
