package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sweep"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// daemon is one in-process sweepd: the server, its Serve goroutine and one
// client. It is the whole daemon — no binary is built or executed — so
// stop can join everything it started.
type daemon struct {
	srv    *sweep.Server
	served chan error // Serve's return value
	client *sweep.Client
	addr   string
}

// startDaemon is the "daemon restart on a populated cache" path: a fresh
// memory tier over the on-disk store in dir, a listener on a free
// loopback port, the experiment handlers, and one connected client.
func startDaemon(dir string) (*daemon, error) {
	disk, err := sweep.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := sweep.NewServer("127.0.0.1:0", sweep.Tiered(sweep.NewMemStore(0), disk), par.NewPool(1))
	if err != nil {
		return nil, err
	}
	experiments.RegisterSweepHandlers(srv)
	d := &daemon{srv: srv, served: make(chan error, 1), addr: srv.Addr()}
	go func() { d.served <- srv.Serve() }()
	if d.client, err = sweep.Dial(d.addr); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the client and the server, waits for Serve to return, and
// checks that nothing listens on the port any more.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.Close()
	}
	d.srv.Close()
	if err := <-d.served; err != nil {
		return err
	}
	if conn, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond); err == nil {
		conn.Close()
		return fmt.Errorf("sweepd_warm: listener %s still accepts after Close", d.addr)
	}
	return nil
}

// sweepdWarm serves the Γ grid from a warm cache: no simulation runs, so a
// unit's cost is store lookups, JSON, transport.PackBytes, the codec and
// loopback TCP.
type sweepdWarm struct {
	params   experiments.SweepJobParams
	requests int
	dir      string // the populated on-disk cache (fixture)
	cold     []byte // the cold-fill job's result payload: what every hit must equal
	coldAcc  float64
	coldFill time.Duration
	d        *daemon
}

// newSweepdWarm builds the fixture, untimed and once: a fresh cache
// directory under tmpRoot filled by one cold job.
func newSweepdWarm(sz sizes, seed uint64, tmpRoot string) (*sweepdWarm, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "sweepd-cache-")
	if err != nil {
		return nil, err
	}
	s := &sweepdWarm{
		params:   experiments.SweepJobParams{Nodes: sz.sweepNodes, Rounds: sz.sweepRounds, Seed: seed},
		requests: sz.sweepRequests,
		dir:      dir,
	}
	if err := s.fill(); err != nil {
		s.remove()
		return nil, err
	}
	return s, nil
}

func (s *sweepdWarm) fill() error {
	d, err := startDaemon(s.dir)
	if err != nil {
		return err
	}
	start := time.Now()
	payload, stats, err := d.client.Do(experiments.JobGammaGrid, s.params, nil)
	s.coldFill = time.Since(start)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("sweepd_warm: cold fill: %w", err)
	}
	if stats.Hits != 0 || stats.Misses != stats.Cells || stats.Cells == 0 {
		return fmt.Errorf("sweepd_warm: cold fill was not cold: %s", stats)
	}
	var rows []experiments.GammaHarvestRow
	if err := json.Unmarshal(payload, &rows); err != nil {
		return fmt.Errorf("sweepd_warm: decode cold rows: %w", err)
	}
	if err := checkGridRows(rows); err != nil {
		return err
	}
	for _, row := range rows {
		s.coldAcc += row.Best.FinalAcc / float64(len(rows))
	}
	s.cold = payload
	return nil
}

// remove deletes the fixture.
func (s *sweepdWarm) remove() error { return os.RemoveAll(s.dir) }

func (s *sweepdWarm) name() string { return "sweepd_warm" }

// setUp restarts the daemon on the populated cache and sends the first
// job, which promotes every cell from the disk tier to the memory tier.
func (s *sweepdWarm) setUp() (err error) {
	if s.d, err = startDaemon(s.dir); err != nil {
		return err
	}
	if err := s.request(nil, nil); err != nil {
		s.close()
		return err
	}
	return nil
}

func (s *sweepdWarm) close() error {
	if s.d == nil {
		return nil
	}
	d := s.d
	s.d = nil
	return d.stop()
}

// request sends one job and holds the reply to the cache contract: every
// cell a hit, and the payload byte-identical to what the cold job
// computed (hit ≡ recompute).
func (s *sweepdWarm) request(tr *tracer, onEvent func(obs.Event)) error {
	id := tr.begin("sweep.request")
	payload, stats, err := s.d.client.Do(experiments.JobGammaGrid, s.params, onEvent)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.count("sweep.hits", stats.Hits)
	tr.count("sweep.misses", stats.Misses)
	tr.count("sweep.shared", stats.Shared)
	return checkReply(payload, stats, s.cold)
}

func checkReply(payload []byte, stats sweep.Stats, cold []byte) error {
	if !stats.AllHits() {
		return fmt.Errorf("sweepd_warm: warm reply was not all hits: %s", stats)
	}
	if !bytes.Equal(payload, cold) {
		return fmt.Errorf("sweepd_warm: served payload differs from the cold-fill job's (%d vs %d bytes)", len(payload), len(cold))
	}
	return nil
}

func (s *sweepdWarm) unit(tr *tracer) (unitResult, error) {
	r := unitResult{ops: s.requests, acc: s.coldAcc, work: float64(s.requests)}
	// A traced unit re-encodes the progress frames its first request is
	// sent, to count the bytes a reply puts on the wire; every request gets
	// the same frames, and re-encoding them all would be the bulk of the
	// tracing overhead.
	var onEvent func(obs.Event)
	if tr != nil {
		onEvent = func(ev obs.Event) { tr.count("sweep.progress_bytes", frameBytes(ev)) }
		tr.count("sweep.progress_requests", 1)
	}
	var firstErr error
	for i := 0; i < s.requests; i++ {
		if i == 1 {
			onEvent = nil
		}
		if err := s.request(tr, onEvent); err != nil {
			r.failedOps++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	// Every served payload equalled s.cold, so its hash is the unit's.
	r.digest = sha256.Sum256(s.cold)
	return r, firstErr
}

// frameBytes is the encoded size of one sweep-protocol frame carrying v:
// JSON, packed 8 bytes per float64 behind a length element, behind the
// codec's header.
func frameBytes(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return transport.EncodedSize(1 + (len(b)+7)/8)
}

func (s *sweepdWarm) layers(tr *tracer, m metrics) {
	reqs := tr.durations(s.name(), "sweep.request")
	n := float64(len(reqs))
	hits := float64(tr.counted(s.name(), "sweep.hits"))
	misses := float64(tr.counted(s.name(), "sweep.misses"))
	shared := float64(tr.counted(s.name(), "sweep.shared"))
	m.set("sweep.hits", hits/n)
	m.set("sweep.misses", misses/n)
	m.set("sweep.shared", shared/n)
	m.set("sweep.hit_ratio", hits/(hits+misses+shared))
	m.set("sweep.request_ms_p50", quantile(reqs, 0.5)/1e6)
	m.set("sweep.request_ms_p99", quantile(reqs, 0.99)/1e6)
	m.set("sweep.reply_bytes", float64(len(s.cold)))
	rawParams, _ := json.Marshal(s.params)
	request := frameBytes(sweep.JobRequest{Kind: experiments.JobGammaGrid, Params: rawParams})
	reply := frameBytes(sweep.JobReply{Result: s.cold, Stats: sweep.Stats{Cells: 80, Hits: 80}})
	progress := float64(tr.counted(s.name(), "sweep.progress_bytes")) / float64(tr.counted(s.name(), "sweep.progress_requests"))
	m.set("sweep.wire_bytes_per_request", float64(request+reply)+progress)
	m.set("sweep.cold_fill_s", s.coldFill.Seconds())
}

// probeStores times the two cache tiers and the reply's trip through the
// packing layer and the codec, on entries and a frame of the sizes the
// workload serves.
func (s *sweepdWarm) probeStores(tr *tracer, reps int, m metrics) error {
	dir, err := os.MkdirTemp(s.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := sweep.NewFileStore(dir)
	if err != nil {
		return err
	}
	mem := sweep.NewMemStore(0)
	payload, err := json.Marshal(experiments.GammaHarvestCell{
		GammaTrain: 1, GammaSync: 3, FinalAcc: 61.875, Participation: 87.5,
		HarvestedWh: 0.0123456789, ConsumedWh: 0.0234567891, WastedWh: 0.00123456789, WastedFrac: 0.0909090909,
	})
	if err != nil {
		return err
	}
	const cells = 80
	keys := make([]sweep.CellKey, cells)
	for i := range keys {
		keys[i] = sweep.CellKey{ConfigHash: fmt.Sprintf("%064x", sha256.Sum256([]byte{byte(i)}))}
		if err := mem.Put(sweep.CellResult{Key: keys[i], Payload: payload}); err != nil {
			return err
		}
	}
	var perr error
	i := 0
	m.set("sweep.put_us", tr.best("sweep.file_put", reps, cells, func() {
		if err := disk.Put(sweep.CellResult{Key: keys[i%cells], Payload: payload, ElapsedNs: 1}); err != nil {
			perr = err
		}
		i++
	})/1e3)
	m.set("sweep.file_get_us", tr.best("sweep.file_get", reps, cells, func() {
		if _, ok, err := disk.Get(keys[i%cells]); err != nil || !ok {
			perr = fmt.Errorf("file store lost cell %d: %v", i%cells, err)
		}
		i++
	})/1e3)
	m.set("sweep.mem_get_ns", tr.best("sweep.mem_get", reps, cells, func() {
		if _, ok, _ := mem.Get(keys[i%cells]); !ok {
			perr = fmt.Errorf("memory store lost cell %d", i%cells)
		}
		i++
	}))
	if perr != nil {
		return fmt.Errorf("sweepd_warm: store probe: %w", perr)
	}

	reply, err := json.Marshal(sweep.JobReply{Result: s.cold, Stats: sweep.Stats{Cells: cells, Hits: cells}})
	if err != nil {
		return err
	}
	var vec tensor.Vector
	gbps := func(ns float64) float64 { return float64(len(reply)) / ns }
	m.set("transport.packbytes_gbps", gbps(tr.best("transport.packbytes", reps, 64, func() {
		vec, perr = transport.PackBytes(reply)
	})))
	msg := transport.Message{Kind: transport.KindResult, Vec: vec}
	var frame []byte
	m.set("transport.marshal_gbps", gbps(tr.best("transport.marshal", reps, 64, func() {
		frame, perr = transport.Marshal(frame[:0], msg)
	})))
	m.set("transport.unmarshal_gbps", gbps(tr.best("transport.unmarshal", reps, 64, func() {
		_, _, perr = transport.Unmarshal(frame)
	})))
	if perr != nil {
		return fmt.Errorf("sweepd_warm: codec probe: %w", perr)
	}
	return nil
}
