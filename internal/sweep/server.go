package sweep

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// Handler computes one registered workload. It receives a job-scoped
// Runner (shared cache and pool, per-job stats and progress probe) and
// the request's raw parameters; the returned value is JSON-encoded into
// the reply. Handlers run one per connection at a time but concurrently
// across connections, so they must not share mutable state outside the
// Runner.
type Handler func(r *Runner, params json.RawMessage) (any, error)

// Server accepts connections, reads job frames, dispatches registered
// handlers through a shared memoizing Runner, and streams per-cell
// progress back to the submitting client. It is kept only for the frozen
// bench/sweepd.go, until ROADMAP item 1(b) replaces sweepd_warm and item
// 15 deletes it.
type Server struct {
	ln     net.Listener
	runner *Runner

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer listens on addr (host:port, ":0" for an OS-assigned port) and
// schedules cells over the given store and pool.
func NewServer(addr string, store Store, pool *par.Pool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sweep: listen %s: %w", addr, err)
	}
	return &Server{
		ln:       ln,
		runner:   NewRunner(store, pool),
		handlers: map[string]Handler{},
		conns:    map[net.Conn]struct{}{},
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers a workload under kind. Registrations must complete
// before Serve.
func (s *Server) Handle(kind string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// Serve accepts and serves connections until Close; it returns nil after
// a clean shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("sweep: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener, closes live connections, and waits for their
// handlers to return. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fc := newFrameConn(conn)
	for {
		kind, seq, doc, err := fc.read()
		if err != nil {
			return // client went away or stream corrupt
		}
		if fc.write(transport.KindResult, seq, s.runJob(fc, kind, seq, doc)) != nil {
			return
		}
	}
}

// runJob executes one job frame and builds its reply; workload panics and
// errors become reply errors, never a dead connection.
func (s *Server) runJob(fc *frameConn, kind transport.Kind, seq int, doc []byte) (reply JobReply) {
	if kind != transport.KindJob {
		return JobReply{Error: fmt.Sprintf("unexpected frame kind %d", kind)}
	}
	var req JobRequest
	if err := json.Unmarshal(doc, &req); err != nil {
		return JobReply{Error: "decode job request: " + err.Error()}
	}
	s.mu.Lock()
	h, ok := s.handlers[req.Kind]
	s.mu.Unlock()
	if !ok {
		return JobReply{Error: fmt.Sprintf("unknown job kind %q", req.Kind)}
	}

	var probe *obs.Probe // nil unless subscribed: no label, event or frame per cell
	if req.Progress {    // a failed write is sticky in fc: later events are dropped, the job runs on
		probe = obs.NewProbe(progressSink(func(ev obs.Event) { _ = fc.write(transport.KindProgress, seq, ev) }))
	}
	scoped := s.runner.Scope(probe)
	defer func() {
		reply.Stats = scoped.Stats()
		if r := recover(); r != nil {
			reply = JobReply{Stats: scoped.Stats(), Error: fmt.Sprintf("job %q panicked: %v", req.Kind, r)}
		}
	}()
	result, err := h(scoped, req.Params)
	if err != nil {
		return JobReply{Error: err.Error()}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return JobReply{Error: fmt.Sprintf("encode result: %v", err)}
	}
	return JobReply{Result: b}
}
