package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// serve-retailer: the lmfao-serve stack in process on loopback. A
// DurableSession that fsyncs every commit sits behind serve.Server, serving
// the covar ∪ MI ∪ cube batch. A reader connection sends open-loop
// lookups (a read) over groups sampled from the grouped MI and cube results
// plus a share of absent groups; a writer connection sends open-loop
// synchronous applies of Inventory batches (a write), and the benchmark
// checkpoints every checkpointEvery acknowledged applies. At the end the
// session is killed killPast records past its last checkpoint; the step is
// recovering it and answering the first lookup through a fresh server.

const (
	serveScale      = 0.002
	lookupRate      = 500 // lookups per second
	applyRate       = 20  // applies per second
	applyRows       = 48  // rows per apply: half deletes, half inserts
	checkpointEvery = 24  // acknowledged applies between checkpoints
	killPast        = 8   // WAL records past the last checkpoint at the kill
	recoverReps     = 5
	lookupKeys      = 512
	absentEvery     = 10 // every absentEvery-th sampled key is absent
	checkLookups    = 256
	reqHeader       = "X-Perfbench-Req"
)

var durableOpts = lmfao.DurableOptions{SyncEvery: 1, CheckpointEvery: -1}

type serveRun struct {
	cfg     config
	scale   float64
	ds      *datagen.Dataset
	queries []*query.Query
	live    *liveGen
	dir     string
	sess    *lmfao.DurableSession
	maint   *timedMaintainer
	srv     *serve.Server
	ts      *httptest.Server
	tr      atomic.Pointer[tracer] // the tracer of the running phase, nil untraced
	reqSeq  atomic.Int64
	keys    []lookupKey
	setups  int

	read, write    *loadStats
	writeBusy      time.Duration
	rows, rejected int
	ckptLSN        uint64
	walBytesPerRow float64
	recovered      samples
	replayed       uint64
	lookupsChecked int
}

// lookupKey is one sampled group of one batch query.
type lookupKey struct {
	query int
	key   []int64
}

func runServe(cfg config) (*outcome, error) {
	s := &serveRun{cfg: cfg, scale: cfg.scale}
	if s.scale == 0 {
		s.scale = serveScale
	}
	defer s.teardown()
	setupS, err := repeatSetup(s.setup)
	if err != nil {
		return nil, err
	}
	s.sampleKeys()
	ms, err := splitTrace(cfg, s.measure)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	s.tr.Store(ms.tr)
	out.checkErr = s.finish()

	out.notef("serve-retailer: retailer scale %g, %d queries, lookups at %d/s and %d-row applies at %d/s over loopback, checkpoint every %d applies, %d lookups checked",
		s.scale, len(s.queries), lookupRate, applyRows, applyRate, checkpointEvery, s.lookupsChecked)
	out.e2e["setup_s"] = setupS
	out.latency("read", &s.read.lat)
	out.latency("write", &s.write.lat)
	out.e2e["write_rows_per_s"] = float64(s.rows) / s.writeBusy.Seconds()
	out.e2e["step_s"] = median(s.recovered.ms) / 1000
	out.attempted += s.recovered.n()
	out.failed += s.recovered.failed
	out.e2e["rss_mb"] = ms.rssMB
	if ms.tr != nil {
		s.layers(out, ms.tr, ms.overhead)
	}
	return out, nil
}

func (s *serveRun) teardown() {
	if s.ts != nil {
		s.ts.Close()
		s.ts = nil
	}
	if s.sess != nil {
		s.sess.Close()
		s.sess = nil
	}
}

func (s *serveRun) setup() error {
	s.teardown()
	s.setups++
	s.dir = filepath.Join(s.cfg.workDir, fmt.Sprintf("serve-%d", s.setups))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	ds, err := datagen.Retailer(dataConfig(s.scale))
	if err != nil {
		return err
	}
	s.ds = ds
	s.queries = serveBatch(ds)
	s.live = newLiveGen(ds.DB, s.cfg.seed+1)
	sess, err := lmfao.NewDurableSession(ds.DB, s.queries, lmfao.DefaultOptions(), durableOpts, s.dir)
	if err != nil {
		return err
	}
	s.sess = sess
	if _, err := sess.Run(); err != nil {
		return err
	}
	s.maint = &timedMaintainer{DurableSession: sess, run: s}
	srv, err := serve.NewServer(serve.Config{DB: ds.DB, Maintainer: s.maint, Queries: s.queries})
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(&tracedHandler{h: srv, run: s})
	return nil
}

// serveBatch is the served batch: covar, then MI, then cube.
func serveBatch(ds *datagen.Dataset) []*query.Query {
	qs := workloads.CovarMatrix(ds)
	qs = append(qs, workloads.MutualInfo(ds)...)
	return append(qs, workloads.DataCube(ds)...)
}

// sampleKeys draws lookup keys from the grouped MI and cube results; every
// absentEvery-th key names a group that does not exist.
func (s *serveRun) sampleKeys() {
	rng := rand.New(rand.NewSource(s.cfg.seed + 2))
	sn := s.sess.Head()
	var grouped []int
	for qi := len(workloads.CovarMatrix(s.ds)); qi < len(s.queries); qi++ {
		if len(s.queries[qi].GroupBy) > 0 && sn.Result(qi).NumRows() > 0 {
			grouped = append(grouped, qi)
		}
	}
	s.keys = nil
	for len(s.keys) < lookupKeys {
		qi := grouped[rng.Intn(len(grouped))]
		v := sn.Result(qi)
		key := v.Key(rng.Intn(v.NumRows()))
		if len(s.keys)%absentEvery == absentEvery-1 {
			key[0] = -1 - int64(rng.Intn(1000))
		}
		s.keys = append(s.keys, lookupKey{qi, key})
	}
}

func lookupPath(k lookupKey) string {
	parts := make([]string, len(k.key))
	for i, v := range k.key {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("/v1/lookup?query=%d&key=%s", k.query, strings.Join(parts, ","))
}

// oneConn returns a client that keeps to a single connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// do sends req with a request id and returns the body of a 200 response.
func (s *serveRun) do(client *http.Client, req *http.Request, span string) ([]byte, error) {
	tr := s.tr.Load()
	id := s.reqSeq.Add(1)
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	sid := tr.begin(span, 0, id)
	resp, err := client.Do(req)
	if err != nil {
		tr.end(sid)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sid)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

type lookupReply struct {
	OK     bool      `json:"ok"`
	Values []float64 `json:"values"`
}

func (s *serveRun) lookup(client *http.Client, k lookupKey) (lookupReply, error) {
	var rep lookupReply
	req, err := http.NewRequest(http.MethodGet, s.ts.URL+lookupPath(k), nil)
	if err != nil {
		return rep, err
	}
	body, err := s.do(client, req, "load.lookup")
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(body, &rep)
}

// apply sends one synchronous ingest round of applyRows Inventory rows and
// returns the rows acknowledged.
func (s *serveRun) apply(client *http.Client) (int, error) {
	delta, err := s.live.delta("Inventory", applyRows)
	if err != nil {
		return 0, err
	}
	body, err := json.Marshal(applyWire(delta))
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/apply", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := s.do(client, req, "load.apply"); err != nil {
		return 0, err
	}
	return delta.InsertRows() + delta.DeleteRows(), nil
}

func (s *serveRun) checkpoint() error {
	err := s.tr.Load().do("wal.checkpoint", 0, func(int64) error { return s.sess.Checkpoint() })
	if err == nil {
		s.ckptLSN = s.sess.LastLSN()
	}
	return err
}

// measure runs the reader and the writer for d and returns the lookup
// median (ms).
func (s *serveRun) measure(d time.Duration, tr *tracer) (float64, error) {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	s.maint.reset()
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := oneConn()
		defer client.CloseIdleConnections()
		s.read = openLoop{interval: time.Second / lookupRate, clock: wallClock{}}.run(stop, func(i int) error {
			_, err := s.lookup(client, s.keys[i%len(s.keys)])
			return err
		})
	}()
	client := oneConn()
	defer client.CloseIdleConnections()
	s.rows, s.writeBusy = 0, 0
	acked := 0
	s.write = openLoop{interval: time.Second / applyRate, clock: wallClock{}}.run(stop, func(int) error {
		start := time.Now()
		n, err := s.apply(client)
		if err != nil {
			return err
		}
		s.writeBusy += time.Since(start)
		s.rows += n
		if acked++; acked%checkpointEvery == 0 {
			return s.checkpoint()
		}
		return nil
	})
	wg.Wait()
	s.rejected += s.read.lat.failed + s.write.lat.failed
	if tr != nil {
		sn := s.sess.Head()
		for _, k := range s.keys {
			id := tr.begin("session.lookup", 0, 0)
			sn.Lookup(k.query, k.key...)
			tr.end(id)
		}
	}
	return median(s.read.lat.ms), nil
}

// finish checks sampled lookups, kills the session killPast records past
// a checkpoint, and times recovery; it returns the first failed check.
func (s *serveRun) finish() error {
	client := oneConn()
	defer client.CloseIdleConnections()
	if err := s.checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	walBefore := dirBytes(filepath.Join(s.dir, "wal"))
	rows := 0
	for i := 0; i < killPast; i++ {
		n, err := s.apply(client)
		if err != nil {
			return fmt.Errorf("apply before kill: %w", err)
		}
		rows += n
	}
	s.walBytesPerRow = float64(dirBytes(filepath.Join(s.dir, "wal"))-walBefore) / float64(rows)

	// Sampled HTTP lookups must equal the head snapshot bit for bit.
	head := s.sess.Head()
	for i := 0; i < checkLookups; i++ {
		k := s.keys[i%len(s.keys)]
		rep, err := s.lookup(client, k)
		if err != nil {
			return fmt.Errorf("check lookup: %w", err)
		}
		want, ok := head.Lookup(k.query, k.key...)
		if rep.OK != ok || !sameBits(rep.Values, want) {
			return fmt.Errorf("lookup %d%v over HTTP = %v %v, head snapshot has %v %v", k.query, k.key, rep.OK, rep.Values, ok, want)
		}
		s.lookupsChecked++
	}
	versions := head.VersionVector()
	s.ts.Close()
	s.ts = nil
	s.sess.Kill()
	s.sess = nil

	s.recovered = samples{}
	var firstErr error
	for i := 0; i < recoverReps; i++ {
		err := s.recoverOnce(versions)
		if err != nil {
			s.recovered.fail()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// recoverOnce regenerates the pristine database and collects the previous
// recovery's garbage (untimed), then times RecoverSession plus the first
// successful lookup through a fresh server, and checks that every
// acknowledged apply survived.
func (s *serveRun) recoverOnce(want lmfao.VersionVector) error {
	pristine, err := datagen.Retailer(dataConfig(s.scale))
	if err != nil {
		return err
	}
	runtime.GC()
	tr := s.tr.Load()
	start := time.Now()
	rid := tr.begin("wal.recover", 0, 0)
	rec, err := lmfao.RecoverSession(s.dir, pristine.DB, s.queries, lmfao.DefaultOptions(), durableOpts)
	tr.end(rid)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Kill()
	srv, err := serve.NewServer(serve.Config{DB: pristine.DB, Maintainer: rec, Queries: s.queries})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := oneConn()
	defer client.CloseIdleConnections()
	url := ts.URL + lookupPath(s.keys[0])
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > time.Minute {
			return fmt.Errorf("no successful lookup within a minute of recovery")
		}
	}
	s.recovered.add(time.Since(start))
	s.replayed = rec.LastLSN() - s.ckptLSN
	if got := rec.Head().VersionVector(); !sameVersions(got, want) {
		return fmt.Errorf("recovered versions %v, want the pre-kill head's %v", got, want)
	}
	return nil
}

func (s *serveRun) layers(out *outcome, tr *tracer, overhead float64) {
	L := out.layer
	L["trace.overhead_frac"] = overhead
	applyLayers(L, s.maint.rounds, []*moo.Engine{s.maint.engine})
	L["session.lookup_us"] = 1000 * median(tr.durations("session.lookup"))
	L["wal.checkpoint_ms"] = median(tr.durations("wal.checkpoint"))
	L["wal.bytes_per_row"] = s.walBytesPerRow
	L["wal.replay_records"] = float64(s.replayed)
	L["serve.lookup_handler_us"] = 1000 * median(tr.durations("serve.lookup_handler"))
	L["serve.apply_handler_ms"] = median(tr.durations("serve.apply_handler"))
	L["serve.degraded"] = float64(s.srv.Shedded())
	L["serve.rejected"] = float64(s.rejected)
	L["load.lookup_late_ms"] = highTail(s.read.late).Value
	L["load.apply_late_ms"] = highTail(s.write.late).Value

	// Transport time: what the client saw minus what the handler took, per
	// request id.
	handler := map[int64]time.Duration{}
	for _, sp := range tr.closed() {
		if sp.Name == "serve.lookup_handler" {
			handler[sp.Req] = sp.dur()
		}
	}
	var transport []float64
	for _, sp := range tr.closed() {
		if h, ok := handler[sp.Req]; ok && sp.Name == "load.lookup" {
			transport = append(transport, 1000*ms(sp.dur()-h))
		}
	}
	L["serve.transport_us"] = median(transport)
}

// timedMaintainer times the session's synchronous Apply. Snapshot, Wedged
// and every other method are the embedded session's own, so the server
// sees the same snapshots and health signal it would without the wrapper.
type timedMaintainer struct {
	*lmfao.DurableSession
	run *serveRun

	mu     sync.Mutex
	rounds []roundStats
	engine *moo.Engine
}

func (t *timedMaintainer) reset() {
	t.mu.Lock()
	t.rounds = nil
	t.engine = t.Session().Engine()
	t.mu.Unlock()
}

func (t *timedMaintainer) Apply(updates ...lmfao.Update) ([]*lmfao.ApplyStats, error) {
	start := time.Now()
	stats, err := t.DurableSession.Apply(updates...)
	took := time.Since(start)
	if err == nil && t.run.tr.Load() != nil {
		t.mu.Lock()
		t.rounds = append(t.rounds, sumRound(took, stats))
		t.mu.Unlock()
	}
	return stats, err
}

// tracedHandler records a span for every lookup and apply the server
// handles, under the client's request id.
type tracedHandler struct {
	h   http.Handler
	run *serveRun
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.run.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	name := "serve.apply_handler" // the benchmark sends lookups and applies only
	if r.URL.Path == "/v1/lookup" {
		name = "serve.lookup_handler"
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	id := tr.begin(name, 0, req)
	t.h.ServeHTTP(w, r)
	tr.end(id)
}

// applyWire renders a delta as the ingest endpoint's row-major JSON body.
func applyWire(u data.Delta) map[string]any {
	toRows := func(cols []data.Column) [][]float64 {
		if len(cols) == 0 {
			return nil
		}
		rows := make([][]float64, cols[0].Len())
		for i := range rows {
			row := make([]float64, len(cols))
			for c, col := range cols {
				row[c] = col.Float(i)
			}
			rows[i] = row
		}
		return rows
	}
	up := map[string]any{"relation": u.Relation}
	if rows := toRows(u.Inserts); len(rows) > 0 {
		up["inserts"] = rows
	}
	if rows := toRows(u.Deletes); len(rows) > 0 {
		up["deletes"] = rows
	}
	return map[string]any{"updates": []any{up}}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameVersions(a, b lmfao.VersionVector) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
