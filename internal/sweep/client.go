package sweep

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Client submits jobs to a sweep server over one persistent connection.
// Do is serialized (one job in flight per client); open a second client
// for concurrent submissions. It is kept only for the frozen
// bench/sweepd.go, until ROADMAP item 1(b) replaces sweepd_warm and item
// 15 deletes it.
type Client struct {
	mu   sync.Mutex
	fc   *frameConn
	seq  int
	dead error // the mid-job failure that left the stream out of step
}

// Dial connects to a sweep server at addr. Like Client, it is kept only
// for the frozen bench/sweepd.go (ROADMAP items 1(b) and 15).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sweep: dial %s: %w", addr, err)
	}
	return &Client{fc: newFrameConn(conn)}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.fc.conn.Close() }

// Do submits one job and blocks until its result. params is JSON-encoded
// into the request (use nil for parameterless jobs); onEvent, when
// non-nil, subscribes the job to progress and receives each event. The
// returned Stats are the job's cache statistics; server-side workload
// failures come back as errors alongside them. A job that fails on the
// connection leaves frames in flight, so later Dos fail: redial.
func (c *Client) Do(kind string, params any, onEvent func(obs.Event)) (json.RawMessage, Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil, Stats{}, fmt.Errorf("sweep: connection unusable, redial: an earlier job failed: %w", c.dead)
	}
	req := JobRequest{Kind: kind, Progress: onEvent != nil}
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("sweep: encode params: %w", err)
		}
		req.Params = b
	}
	c.seq++
	var reply JobReply
	if err := c.exchange(req, &reply, onEvent); err != nil {
		c.dead = fmt.Errorf("sweep: job %d (%s): %w", c.seq, kind, err)
		return nil, Stats{}, c.dead
	}
	if reply.Error != "" {
		return nil, reply.Stats, fmt.Errorf("sweep: server: %s", reply.Error)
	}
	return reply.Result, reply.Stats, nil
}

// exchange sends the request and reads frames up to its result.
func (c *Client) exchange(req JobRequest, reply *JobReply, onEvent func(obs.Event)) error {
	if err := c.fc.write(transport.KindJob, c.seq, req); err != nil {
		return err
	}
	for {
		kind, seq, doc, err := c.fc.read()
		switch {
		case err != nil:
			return fmt.Errorf("connection lost mid-job: %w", err)
		case seq != c.seq:
			return fmt.Errorf("frame of job %d arrived instead", seq)
		case kind == transport.KindResult:
			return json.Unmarshal(doc, reply)
		case kind != transport.KindProgress:
			return fmt.Errorf("unexpected frame kind %d", kind)
		case onEvent != nil: // unasked-for progress (an older server) is dropped undecoded
			var ev obs.Event
			if err := json.Unmarshal(doc, &ev); err != nil {
				return err
			}
			onEvent(ev)
		}
	}
}
