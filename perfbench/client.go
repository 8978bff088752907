package main

import (
	"bytes"
	"fmt"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"cbfww/internal/peers"
)

// Request operations.
const (
	opBody   = 'b' // GET /body?url=
	opQuery  = 'q' // POST /query
	opSearch = 's' // GET /search?q=
)

// Request is one generated request: the operation, the node it goes to,
// and its argument (page URL, query text or search terms).
type Request struct {
	Op   byte
	Node int
	Arg  string
}

// Served is what the client learned from one response.
type Served struct {
	OK      bool
	Source  string // X-CBFWW-Source, /body only
	Proxied bool   // served by another node than the one asked
	Bytes   int64
	Start   time.Time // when the request was sent
	End     time.Time // when its last body byte was read
	Err     string    // first failure reason, for the log
}

// Client issues requests from one worker: one keep-alive connection per
// node, a reused body buffer, and the origin oracle to check bytes.
type Client struct {
	hc     *http.Client
	nodes  []string
	origin *Origin
	buf    bytes.Buffer
	// traceID, when set, tags each request URL with its index so the
	// traced handler and origin spans can be joined to it.
	traceID bool
}

func newClient(nodes []string, origin *Origin) *Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, nodes: nodes, origin: origin}
}

func (c *Client) close() { c.hc.CloseIdleConnections() }

// Do issues r (request index i) and checks the response.
func (c *Client) Do(i int, r Request) Served {
	node := c.nodes[r.Node%len(c.nodes)]
	var (
		req *http.Request
		err error
	)
	q := neturl.Values{}
	if c.traceID {
		q.Set("rid", strconv.Itoa(i))
	}
	switch r.Op {
	case opBody:
		q.Set("url", r.Arg)
		req, err = http.NewRequest(http.MethodGet, "http://"+node+"/body?"+q.Encode(), nil)
	case opQuery:
		req, err = http.NewRequest(http.MethodPost, "http://"+node+"/query?"+q.Encode(), strings.NewReader(r.Arg))
		if req != nil {
			req.Header.Set("Content-Type", "text/plain")
		}
	case opSearch:
		q.Set("n", "5")
		q.Set("q", r.Arg)
		req, err = http.NewRequest(http.MethodGet, "http://"+node+"/search?"+q.Encode(), nil)
	default:
		err = fmt.Errorf("unknown op %q", r.Op)
	}
	s := Served{Start: time.Now()}
	if err != nil {
		s.End, s.Err = time.Now(), err.Error()
		return s
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.End, s.Err = time.Now(), err.Error()
		return s
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.End = time.Now()
	s.Bytes = int64(c.buf.Len())
	switch {
	case err != nil:
		s.Err = err.Error()
		return s
	case resp.StatusCode != http.StatusOK:
		s.Err = fmt.Sprintf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, c.buf.String())
		return s
	}
	if got := resp.Header.Get(peers.HeaderNode); got != "" && got != node {
		s.Proxied = true
	}
	if r.Op != opBody {
		s.OK = true
		return s
	}
	s.Source = resp.Header.Get("X-CBFWW-Source")
	v, _ := strconv.Atoi(resp.Header.Get("X-CBFWW-Version"))
	if !c.origin.Check(r.Arg, v, c.buf.Bytes()) {
		s.Err = fmt.Sprintf("wrong bytes for %s version %d (%d bytes, source %s)", r.Arg, v, c.buf.Len(), s.Source)
		return s
	}
	s.OK = true
	return s
}
