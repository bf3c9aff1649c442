package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codephage/internal/server"
)

// forwardedHeader marks a request as already forwarded once. A node
// receiving it never forwards again: when two nodes' membership views
// momentarily disagree about ownership, the second hop serves locally
// instead of ping-ponging. Determinism makes serving anywhere safe —
// the ring exists for dedup and cache locality, not correctness.
const forwardedHeader = "X-Phaged-Forwarded-From"

// Config assembles a cluster node.
type Config struct {
	// Self is this node's advertised base URL, e.g.
	// "http://10.0.0.1:8347". Tests that only learn their URL after
	// binding may leave it empty and call SetTopology once known.
	Self string
	// Peers are the other members' advertised base URLs.
	Peers []string
	// Server configures the wrapped phaged core.
	Server server.Config
	// VNodes is the ring's virtual-node count per member (0 = 64).
	// Every member must use the same value.
	VNodes int
	// ControlTimeout bounds cluster control calls — leave broadcasts,
	// steal negotiation, status and metric fan-in (0 = 10s). Forwarded
	// transfers are NOT control calls: they run as long as the job.
	ControlTimeout time.Duration
	// StealInterval, when positive, polls peers for stealable queued
	// work whenever this node is idle.
	StealInterval time.Duration
	// StealBatch bounds jobs taken per steal (0 = 4).
	StealBatch int
	// Logf receives operational lines (nil = the server config's Logf,
	// else silent).
	Logf func(string, ...any)
}

func (c Config) controlTimeout() time.Duration {
	if c.ControlTimeout > 0 {
		return c.ControlTimeout
	}
	return 10 * time.Second
}

func (c Config) stealBatch() int {
	if c.StealBatch > 0 {
		return c.StealBatch
	}
	return 4
}

// Node is one member of a phaged cluster: a full phaged server plus
// the ring router in front of it.
type Node struct {
	cfg     Config
	srv     *server.Server
	inner   http.Handler
	mux     http.Handler
	control *http.Client // bounded: control-plane calls
	long    *http.Client // unbounded: forwarded transfers (ctx-cancelled)

	mu       sync.Mutex
	self     string
	members  map[string]bool // current view, self included (until drain)
	ring     *Ring
	draining bool
	pending  map[string]*server.Job // jobs handed to thieves, by job ID

	drainOnce sync.Once
	stopAux   chan struct{}
	auxWG     sync.WaitGroup
	auxOnce   sync.Once
	auxStop   sync.Once

	forwards        atomic.Int64
	forwardFailures atomic.Int64
	steals          atomic.Int64
	handoffs        atomic.Int64
	artifactPulls   atomic.Int64
}

// New assembles a node. Call Start (or SetTopology then Start) before
// serving its Handler.
func New(cfg Config) *Node {
	n := &Node{
		cfg:     cfg,
		srv:     server.New(cfg.Server),
		control: &http.Client{Timeout: cfg.controlTimeout()},
		long:    &http.Client{},
		members: map[string]bool{},
		pending: map[string]*server.Job{},
		stopAux: make(chan struct{}),
	}
	n.inner = n.srv.Handler()
	n.srv.SetClusterMetrics(n.clusterStats)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/transfer", n.handleTransfer)
	mux.HandleFunc("GET /v1/cluster/status", n.handleStatus)
	mux.HandleFunc("GET /v1/cluster/metrics", n.handleClusterMetrics)
	mux.HandleFunc("GET /v1/cluster/artifact", n.handleArtifact)
	mux.HandleFunc("POST /v1/cluster/leave", n.handleLeave)
	mux.HandleFunc("POST /v1/cluster/join", n.handleJoin)
	mux.HandleFunc("POST /v1/cluster/steal", n.handleSteal)
	mux.HandleFunc("POST /v1/cluster/stolen", n.handleStolen)
	mux.Handle("/", n.inner)
	n.mux = mux

	if cfg.Self != "" {
		n.SetTopology(cfg.Self, cfg.Peers)
	}
	return n
}

// Server exposes the wrapped phaged core (tests and the daemon loop
// drive Shutdown and Stats through it).
func (n *Node) Server() *server.Server { return n.srv }

// Handler returns the node's HTTP surface: the full phaged API with
// cluster routing on /v1/transfer plus the /v1/cluster endpoints.
func (n *Node) Handler() http.Handler { return n.mux }

// SetTopology (re)establishes this node's identity and peer view and
// rebuilds the ring. Tests call it after binding their listeners.
func (n *Node) SetTopology(self string, peers []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.self = self
	n.members = map[string]bool{self: true}
	for _, p := range peers {
		if p != "" && p != self {
			n.members[p] = true
		}
	}
	n.rebuildRingLocked()
}

func (n *Node) rebuildRingLocked() {
	members := make([]string, 0, len(n.members))
	for m := range n.members {
		members = append(members, m)
	}
	n.ring = NewRing(members, n.cfg.VNodes)
}

func (n *Node) selfURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

func (n *Node) peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.members))
	for m := range n.members {
		if m != n.self {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

func (n *Node) ownerFor(key string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owner(key)
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

func (n *Node) logf(format string, args ...any) {
	switch {
	case n.cfg.Logf != nil:
		n.cfg.Logf(format, args...)
	case n.cfg.Server.Logf != nil:
		n.cfg.Server.Logf(format, args...)
	}
}

// Start launches the wrapped server's workers and the node's
// background loops (the boot-time artifact pull and, when configured,
// the steal poller).
func (n *Node) Start() {
	n.srv.Start()
	n.auxOnce.Do(func() {
		if len(n.peers()) > 0 {
			n.auxWG.Add(1)
			go func() {
				defer n.auxWG.Done()
				n.pullArtifactAtBoot()
			}()
		}
		if n.cfg.StealInterval > 0 {
			n.auxWG.Add(1)
			go func() {
				defer n.auxWG.Done()
				n.stealLoop()
			}()
		}
	})
}

// StopAux stops the node's background loops (Shutdown and the daemon
// loop call it; safe to call repeatedly).
func (n *Node) StopAux() {
	n.auxStop.Do(func() { close(n.stopAux) })
	n.auxWG.Wait()
}

// Shutdown drains the node: Drain (leave the ring, hand off queued
// work), stop the background loops, then drain the wrapped server's
// running jobs.
func (n *Node) Shutdown(ctx context.Context) error {
	n.Drain(ctx)
	n.StopAux()
	return n.srv.Shutdown(ctx)
}

func (n *Node) clusterStats() server.ClusterStats {
	n.mu.Lock()
	peers := len(n.members)
	draining := n.draining
	n.mu.Unlock()
	return server.ClusterStats{
		Peers:           peers,
		Draining:        draining,
		Forwards:        n.forwards.Load(),
		ForwardFailures: n.forwardFailures.Load(),
		Steals:          n.steals.Load(),
		Handoffs:        n.handoffs.Load(),
		ArtifactPulls:   n.artifactPulls.Load(),
	}
}

// handleTransfer is the cluster front door: any node accepts any
// request, computes its content key, and either serves it locally
// (this node owns the key, the ring is empty, or the request already
// hopped once) or forwards it to the ring owner and relays the
// response bytes verbatim.
func (n *Node) handleTransfer(w http.ResponseWriter, r *http.Request) {
	body, code, err := server.ReadBody(w, r, server.MaxJSONBody)
	if err != nil {
		n.srv.WriteError(w, code, err)
		return
	}
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		n.srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	key := server.ContentKey(&req)
	owner := n.ownerFor(key)
	self := n.selfURL()
	hopped := r.Header.Get(forwardedHeader) != ""
	if owner == "" || owner == self || hopped {
		n.serveLocal(w, r, body)
		return
	}
	n.forward(w, r, owner, body)
}

// serveLocal replays the buffered body into the wrapped server.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.inner.ServeHTTP(w, r)
}

// forward relays the request to the owner and copies the response
// back byte for byte — never decode-and-reencode, so forwarded
// responses stay byte-identical to locally-served ones. An
// unreachable owner degrades to local execution: determinism makes
// that safe, it only costs the dedup locality for this key.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	u := owner + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		n.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, n.selfURL())
	resp, err := n.long.Do(req)
	if err != nil {
		n.forwardFailures.Add(1)
		n.logf("cluster: forward to %s failed: %v (serving locally)", owner, err)
		n.serveLocal(w, r, body)
		return
	}
	defer resp.Body.Close()
	n.forwards.Add(1)
	node := resp.Header.Get(server.NodeHeader)
	if node == "" {
		node = owner
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(server.NodeHeader, node)
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
}

// copyFlush copies body to w, flushing after every chunk so forwarded
// NDJSON streams deliver events as they happen instead of after the
// job completes.
func copyFlush(w http.ResponseWriter, body io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		nr, err := body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// MemberStatus is one row of the /v1/cluster/status topology view.
type MemberStatus struct {
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	// Fraction is the member's share of the content-key space.
	Fraction float64 `json:"fraction"`
}

// StatusView is the /v1/cluster/status payload: this node's view of
// the ring (membership is static configuration plus observed leaves,
// so views can differ transiently across nodes).
type StatusView struct {
	Self     string `json:"self"`
	Draining bool   `json:"draining"`
	// Queued is this node's accepted-but-not-running job count — the
	// signal thieves use to find deep queues.
	Queued  int            `json:"queued"`
	Members []MemberStatus `json:"members"`
}

func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	n.mu.Lock()
	ring := n.ring
	self := n.self
	draining := n.draining
	n.mu.Unlock()
	view := StatusView{Self: self, Draining: draining, Queued: n.srv.Stats().Queued}
	for _, m := range ring.Members() {
		view.Members = append(view.Members, MemberStatus{
			Node:     m,
			Self:     m == self,
			Fraction: ring.Fraction(m),
		})
	}
	n.srv.WriteJSON(w, http.StatusOK, view)
}

type memberChange struct {
	Node string `json:"node"`
}

// handleLeave removes a draining member from this node's view; keys
// it owned redistribute to the survivors.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var ch memberChange
	if code, err := server.DecodeJSONBody(w, r, server.MaxJSONBody, &ch); err != nil {
		n.srv.WriteError(w, code, err)
		return
	}
	if ch.Node == "" {
		n.srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("leave names no node"))
		return
	}
	n.mu.Lock()
	delete(n.members, ch.Node)
	n.rebuildRingLocked()
	n.mu.Unlock()
	n.logf("cluster: %s left the ring", ch.Node)
	n.srv.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleJoin admits a member into this node's view (a drained node's
// replacement announcing itself).
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var ch memberChange
	if code, err := server.DecodeJSONBody(w, r, server.MaxJSONBody, &ch); err != nil {
		n.srv.WriteError(w, code, err)
		return
	}
	if ch.Node == "" {
		n.srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("join names no node"))
		return
	}
	n.mu.Lock()
	n.members[ch.Node] = true
	n.rebuildRingLocked()
	n.mu.Unlock()
	n.logf("cluster: %s joined the ring", ch.Node)
	n.srv.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Drain removes this node from the ring and hands its queued jobs to
// their new owners: peers are told to stop routing here, every queued
// (not yet running) job is forwarded to the member now owning its
// key, and the peer's result completes the local job so clients
// polling this node still get their answer. Running jobs finish
// locally via the server's own Shutdown drain. Idempotent.
func (n *Node) Drain(ctx context.Context) {
	n.drainOnce.Do(func() { n.drain(ctx) })
}

func (n *Node) drain(ctx context.Context) {
	n.mu.Lock()
	n.draining = true
	delete(n.members, n.self)
	n.rebuildRingLocked()
	self := n.self
	n.mu.Unlock()

	peers := n.peers()
	for _, p := range peers {
		if err := n.postControl(ctx, p, "/v1/cluster/leave", memberChange{Node: self}); err != nil {
			n.logf("cluster: telling %s we left: %v", p, err)
		}
	}

	jobs := n.srv.TakeQueued(0)
	if len(jobs) == 0 {
		return
	}
	n.logf("cluster: draining: handing off %d queued job(s)", len(jobs))
	// Hand off concurrently: each forward waits for a full engine run
	// on the new owner, and the jobs are independent.
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func(job *server.Job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			n.handoff(ctx, job)
		}(job)
	}
	wg.Wait()
}

// handoff forwards one taken job to its new ring owner and completes
// the local job with the peer's result. With no peer to take it, the
// job is requeued to finish locally during the server drain.
func (n *Node) handoff(ctx context.Context, job *server.Job) {
	owner := n.ownerFor(job.Key)
	if owner == "" {
		if err := n.srv.Requeue(job); err != nil {
			n.srv.FailRemote(job, fmt.Errorf("drain handoff: no peers and requeue failed: %w", err))
		}
		return
	}
	env, err := n.forwardRequest(ctx, owner, job.Req)
	if err != nil {
		n.forwardFailures.Add(1)
		if rqErr := n.srv.Requeue(job); rqErr != nil {
			n.srv.FailRemote(job, fmt.Errorf("drain handoff to %s: %w", owner, err))
		}
		return
	}
	n.handoffs.Add(1)
	n.completeFromEnvelope(job, env, owner)
}

// rawEnvelope is a peer's transfer response with the report kept as
// raw bytes, so relaying it never re-encodes the deterministic
// payload.
type rawEnvelope struct {
	ID     string          `json:"id"`
	Status server.Status   `json:"status"`
	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// forwardRequest runs req on the peer synchronously (hop-guarded so
// the peer never forwards again) and returns its envelope.
func (n *Node) forwardRequest(ctx context.Context, peer string, req *server.Request) (*rawEnvelope, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/transfer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, n.selfURL())
	resp, err := n.long.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return nil, fmt.Errorf("%s: %s (%s)", peer, e.Error, resp.Status)
		}
		return nil, fmt.Errorf("%s: %s", peer, resp.Status)
	}
	var env rawEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding %s envelope: %w", peer, err)
	}
	return &env, nil
}

// completeFromEnvelope publishes a peer-produced terminal envelope as
// the local job's result.
func (n *Node) completeFromEnvelope(job *server.Job, env *rawEnvelope, peer string) {
	switch {
	case env.Status == server.StatusDone && len(env.Report) > 0:
		var rep server.Report
		if err := json.Unmarshal(env.Report, &rep); err != nil {
			n.srv.FailRemote(job, fmt.Errorf("decoding %s report: %w", peer, err))
			return
		}
		n.srv.FinishRemote(job, &rep, nil)
	case env.Status == server.StatusFailed:
		n.srv.FailRemote(job, errors.New(env.Error))
	default:
		n.srv.FailRemote(job, fmt.Errorf("%s returned non-terminal status %q", peer, env.Status))
	}
}

// postControl POSTs a JSON control message to a peer endpoint under
// the control timeout.
func (n *Node) postControl(ctx context.Context, peer, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s%s: %s", peer, path, resp.Status)
	}
	return nil
}

// getControl GETs a peer endpoint under the control timeout and
// decodes the JSON payload into v.
func (n *Node) getControl(ctx context.Context, peer, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return err
	}
	resp, err := n.control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s%s: %s", peer, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
