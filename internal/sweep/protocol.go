package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// The sweep service speaks the transport wire format: each frame is one
// transport byte frame carrying a JSON document, Round echoing the
// client's job sequence number.
//
//	client -> server   KindJob       JobRequest
//	server -> client   KindProgress  obs.Event   (one per cell, only when JobRequest.Progress)
//	server -> client   KindResult    JobReply    (exactly one per job)
//
// A connection carries one job at a time but stays open across jobs —
// clients amortize the dial and the server's cache stays warm across
// submissions. Progress is opt-in per job: an unsubscribed job formats,
// encodes and sends nothing per cell. Frames are encoded in place, one
// buffer per direction; a document read off the wire aliases the read
// buffer until the next read. Mixed versions: a client from before
// Progress never sets it, so its `gridsearch -progress` prints no cell
// lines; this client discards an older server's unasked-for progress.

// JobRequest names a registered workload and carries its parameters.
type JobRequest struct {
	Kind     string          `json:"kind"`
	Params   json.RawMessage `json:"params,omitempty"`
	Progress bool            `json:"progress,omitempty"` // subscribes the job to its per-cell progress frames
}

// JobReply closes a job: the workload's JSON result, the job's cache
// statistics, and the error string when the workload failed (in which
// case Result is empty).
type JobReply struct {
	Result json.RawMessage `json:"result,omitempty"`
	Stats  Stats           `json:"stats"`
	Error  string          `json:"error,omitempty"`
}

const frameWriteTimeout = 10 * time.Second // per frame: a peer that stops reading is cut off, not waited on
const maxRetainedFrame = 1 << 20           // a buffer grown past this by one outsized frame is let go after it

// frameConn is one connection's codec, the same on both ends. wmu orders
// the server's writers (progress from pool workers, the result from the job
// goroutine); broken is sticky: a failed write cuts the stream mid-frame.
type frameConn struct {
	conn   net.Conn
	br     *bufio.Reader
	rbuf   []byte
	wmu    sync.Mutex
	broken bool
	wbuf   bytes.Buffer
}

func newFrameConn(conn net.Conn) *frameConn {
	return &frameConn{conn: conn, br: bufio.NewReader(conn)}
}

// read returns the next frame; doc is valid until the next read.
func (c *frameConn) read() (kind transport.Kind, seq int, doc []byte, err error) {
	if cap(c.rbuf) > maxRetainedFrame {
		c.rbuf = nil
	}
	return transport.ReadBytesFrame(c.br, &c.rbuf)
}

// write sends v as one frame under the write deadline: json.Marshal's
// bytes (Encode's, less its newline) behind the reserved header.
func (c *frameConn) write(kind transport.Kind, seq int, v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.broken {
		return fmt.Errorf("connection broken by an earlier failed write")
	}
	c.wbuf.Reset()
	var reserve [transport.BytesFrameReserve]byte
	c.wbuf.Write(reserve[:])
	if err := json.NewEncoder(&c.wbuf).Encode(v); err != nil { // the Encoder stays on the stack
		return fmt.Errorf("encode frame: %w", err)
	}
	frame, err := transport.FinishBytesFrame(c.wbuf.Bytes()[:c.wbuf.Len()-1], kind, seq)
	if err == nil {
		_ = c.conn.SetWriteDeadline(time.Now().Add(frameWriteTimeout)) // fails only on a closed conn, as the Write then does
		_, err = c.conn.Write(frame)
		c.broken = err != nil
	}
	if c.wbuf.Cap() > maxRetainedFrame {
		c.wbuf = bytes.Buffer{}
	}
	return err
}

// progressSink forwards probe events as KindProgress frames; once a write
// fails the rest are dropped and the job runs on, its cells still cached.
type progressSink func(obs.Event)

func (f progressSink) Emit(ev obs.Event) { f(ev) }
func (progressSink) Close() error        { return nil }
