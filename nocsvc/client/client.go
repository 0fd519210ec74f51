// Package client is the Go client for the nocsvc protocol (see
// internal/nocsvc): it speaks newline-delimited JSON to a nocd daemon
// over TCP, or over any byte stream such as a child process's
// stdin/stdout. Calls are safe for concurrent use; requests pipeline
// over one connection and responses are correlated by id.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"flatnet/internal/nocsvc"
)

// Re-exported protocol types so callers need not import the internal
// package.
type (
	// OpenParams describes the session to open.
	OpenParams = nocsvc.OpenParams
	// EstimateParams is one transfer to estimate.
	EstimateParams = nocsvc.EstimateParams
	// EstimateResult is one estimate's answer.
	EstimateResult = nocsvc.EstimateResult
	// SessionInfo describes an opened session.
	SessionInfo = nocsvc.SessionInfo
	// Stats is the stats verb's payload.
	Stats = nocsvc.Stats
	// Error is a structured server-side failure.
	Error = nocsvc.Error
)

// Client is one protocol connection. Create with Dial or NewClient.
type Client struct {
	wmu sync.Mutex
	w   *bufio.Writer
	rwc io.Closer

	mu      sync.Mutex
	nextID  int64
	pending map[int64]chan nocsvc.Response
	err     error // terminal read-loop error, set once
	done    chan struct{}
}

// Dial connects to a nocd daemon's TCP listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the protocol over an existing stream — a net.Conn,
// or a pipe pair to a nocd child process. The client owns rw and closes
// it on Close (or on read failure) if it implements io.Closer.
func NewClient(rw io.ReadWriter) *Client {
	c := &Client{
		w:       bufio.NewWriter(rw),
		pending: make(map[int64]chan nocsvc.Response),
		done:    make(chan struct{}),
	}
	if rwc, ok := rw.(io.Closer); ok {
		c.rwc = rwc
	}
	go c.readLoop(rw)
	return c
}

// readLoop distributes response lines to their callers by id.
func (c *Client) readLoop(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), nocsvc.MaxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		resp, err := nocsvc.DecodeResponse(line)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	err := sc.Err()
	if err == nil {
		err = io.EOF
	}
	c.fail(err)
}

// fail marks the connection dead and wakes every in-flight call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	c.pending = make(map[int64]chan nocsvc.Response)
	c.mu.Unlock()
	if c.rwc != nil {
		c.rwc.Close()
	}
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	c.fail(errors.New("nocsvc client: closed"))
	return nil
}

// call sends one request and blocks for its response.
func (c *Client) call(req nocsvc.Request) (nocsvc.Response, error) {
	ch := make(chan nocsvc.Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nocsvc.Response{}, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	b, err := nocsvc.EncodeRequest(&req)
	if err != nil {
		c.drop(req.ID)
		return nocsvc.Response{}, fmt.Errorf("nocsvc client: encoding request: %w", err)
	}
	c.wmu.Lock()
	_, werr := c.w.Write(b)
	if werr == nil {
		werr = c.w.WriteByte('\n')
	}
	if werr == nil {
		werr = c.w.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.drop(req.ID)
		return nocsvc.Response{}, werr
	}

	select {
	case resp := <-ch:
		if resp.Err != nil {
			return resp, resp.Err
		}
		return resp, nil
	case <-c.done:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nocsvc.Response{}, err
	}
}

// drop abandons a pending id after a send-side failure.
func (c *Client) drop(id int64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Session is an open server-side session, returned by OpenSession.
type Session struct {
	c    *Client
	id   string
	info SessionInfo
}

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// Info returns the opened session's description.
func (s *Session) Info() SessionInfo { return s.info }

// OpenSession opens a warmed simulation session on the server.
func (c *Client) OpenSession(p OpenParams) (*Session, error) {
	resp, err := c.call(nocsvc.Request{Verb: nocsvc.VerbOpen, Open: &p})
	if err != nil {
		return nil, err
	}
	if resp.Session == "" || resp.Info == nil {
		return nil, errors.New("nocsvc client: open response missing session")
	}
	return &Session{c: c, id: resp.Session, info: *resp.Info}, nil
}

// Estimate asks for one transfer's congestion-aware latency.
func (s *Session) Estimate(src, dst, bytes int) (EstimateResult, error) {
	resp, err := s.c.call(nocsvc.Request{
		Verb:    nocsvc.VerbEstimate,
		Session: s.id,
		Est:     &EstimateParams{Src: src, Dst: dst, Bytes: bytes},
	})
	if err != nil {
		return EstimateResult{}, err
	}
	if resp.Est == nil {
		return EstimateResult{}, errors.New("nocsvc client: estimate response missing result")
	}
	return *resp.Est, nil
}

// BatchEstimate estimates several transfers in one round trip; results
// are in item order.
func (s *Session) BatchEstimate(items []EstimateParams) ([]EstimateResult, error) {
	resp, err := s.c.call(nocsvc.Request{
		Verb:    nocsvc.VerbBatch,
		Session: s.id,
		Batch:   items,
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Batch) != len(items) {
		return nil, fmt.Errorf("nocsvc client: batch answered %d of %d items", len(resp.Batch), len(items))
	}
	return resp.Batch, nil
}

// Stats fetches server-wide counters plus this session's detail.
func (s *Session) Stats() (Stats, error) {
	return s.c.stats(s.id)
}

// Checkpoint snapshots the session's warmed network into the server's
// checkpoint store and returns the checkpoint id. The snapshot is taken
// between simulation steps, so it captures a consistent state; the
// session continues unaffected.
func (s *Session) Checkpoint() (string, error) {
	resp, err := s.c.call(nocsvc.Request{Verb: nocsvc.VerbCheckpoint, Session: s.id})
	if err != nil {
		return "", err
	}
	if resp.Checkpoint == "" {
		return "", errors.New("nocsvc client: checkpoint response missing id")
	}
	return resp.Checkpoint, nil
}

// CloneSession opens a new session restored from a stored checkpoint.
// The clone skips warm-up: it starts at the checkpointed cycle,
// bit-identical to the session the checkpoint was taken from.
func (c *Client) CloneSession(checkpoint string) (*Session, error) {
	resp, err := c.call(nocsvc.Request{Verb: nocsvc.VerbClone, Checkpoint: checkpoint})
	if err != nil {
		return nil, err
	}
	if resp.Session == "" || resp.Info == nil {
		return nil, errors.New("nocsvc client: clone response missing session")
	}
	return &Session{c: c, id: resp.Session, info: *resp.Info}, nil
}

// Close closes the session on the server.
func (s *Session) Close() error {
	_, err := s.c.call(nocsvc.Request{Verb: nocsvc.VerbClose, Session: s.id})
	return err
}

// Stats fetches server-wide counters.
func (c *Client) Stats() (Stats, error) {
	return c.stats("")
}

func (c *Client) stats(session string) (Stats, error) {
	resp, err := c.call(nocsvc.Request{Verb: nocsvc.VerbStats, Session: session})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("nocsvc client: stats response missing payload")
	}
	return *resp.Stats, nil
}
