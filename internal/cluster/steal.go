package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"codephage/internal/server"
)

// Work stealing: an idle node polls peer queue depths and takes
// queued (not yet running) jobs from the deepest one. The victim
// keeps the job entries — its clients keep polling it — and the thief
// posts each result back, which completes the victim's job exactly
// like a local run would. Determinism makes the migration invisible:
// the report bytes are identical wherever the job runs.

type stealRequest struct {
	// Thief is the stealing node's advertised URL (logging only).
	Thief string `json:"thief"`
	// Max bounds the jobs handed over.
	Max int `json:"max"`
}

type stolenJob struct {
	ID      string          `json:"id"`
	Request *server.Request `json:"request"`
}

type stealResponse struct {
	Jobs []stolenJob `json:"jobs"`
}

// stolenResult is the thief's report-back for one stolen job.
type stolenResult struct {
	ID     string          `json:"id"`
	Status server.Status   `json:"status"`
	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// handleSteal hands queued jobs to a thief. A draining node refuses:
// it is already handing its queue off.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if code, err := server.DecodeJSONBody(w, r, server.MaxJSONBody, &req); err != nil {
		n.srv.WriteError(w, code, err)
		return
	}
	if req.Max <= 0 {
		req.Max = n.cfg.stealBatch()
	}
	if n.isDraining() {
		n.srv.WriteJSON(w, http.StatusOK, stealResponse{})
		return
	}
	jobs := n.srv.TakeQueued(req.Max)
	resp := stealResponse{}
	n.mu.Lock()
	for _, job := range jobs {
		n.pending[job.ID] = job
		resp.Jobs = append(resp.Jobs, stolenJob{ID: job.ID, Request: job.Req})
	}
	n.mu.Unlock()
	if len(jobs) > 0 {
		n.logf("cluster: %s stole %d queued job(s)", req.Thief, len(jobs))
	}
	n.srv.WriteJSON(w, http.StatusOK, resp)
}

// handleStolen accepts a thief's result for a previously stolen job
// and completes the local job with it.
func (n *Node) handleStolen(w http.ResponseWriter, r *http.Request) {
	var res stolenResult
	if code, err := server.DecodeJSONBody(w, r, server.MaxJSONBody, &res); err != nil {
		n.srv.WriteError(w, code, err)
		return
	}
	n.mu.Lock()
	job, ok := n.pending[res.ID]
	delete(n.pending, res.ID)
	n.mu.Unlock()
	if !ok {
		n.srv.WriteError(w, http.StatusNotFound, fmt.Errorf("no pending stolen job %q", res.ID))
		return
	}
	n.completeFromEnvelope(job, &rawEnvelope{
		ID: res.ID, Status: res.Status, Error: res.Error, Report: res.Report,
	}, r.Header.Get(forwardedHeader))
	n.srv.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// stealLoop polls for stealable work whenever this node is idle.
func (n *Node) stealLoop() {
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopAux:
			return
		case <-t.C:
			if n.isDraining() || n.srv.Stats().Queued > 0 {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.controlTimeout())
			_, err := n.StealOnce(ctx)
			cancel()
			if err != nil {
				n.logf("cluster: steal: %v", err)
			}
		}
	}
}

// StealOnce asks the peer with the deepest queue for up to StealBatch
// queued jobs, runs them locally, and posts each result back to the
// victim. Returns the number of jobs stolen.
func (n *Node) StealOnce(ctx context.Context) (int, error) {
	victim, depth := "", 0
	for _, p := range n.peers() {
		var view StatusView
		if err := n.getControl(ctx, p, "/v1/cluster/status", &view); err != nil {
			continue // an unreachable peer is not an error; steal elsewhere
		}
		if !view.Draining && view.Queued > depth {
			victim, depth = p, view.Queued
		}
	}
	if victim == "" {
		return 0, nil
	}
	var resp stealResponse
	if err := n.postControlDecode(ctx, victim, "/v1/cluster/steal",
		stealRequest{Thief: n.selfURL(), Max: n.cfg.stealBatch()}, &resp); err != nil {
		return 0, err
	}
	for _, sj := range resp.Jobs {
		n.runStolen(victim, sj)
	}
	return len(resp.Jobs), nil
}

// runStolen executes one stolen job locally and posts the result back
// to the victim. The report-back rides a fresh context: the victim is
// waiting on it even if the steal negotiation's context expired.
func (n *Node) runStolen(victim string, sj stolenJob) {
	res := stolenResult{ID: sj.ID}
	job, _, err := n.srv.Submit(sj.Request)
	if err != nil {
		res.Status = server.StatusFailed
		res.Error = err.Error()
	} else {
		<-job.Done()
		res.Status = job.Status()
		if rep := job.Report(); rep != nil {
			data, err := rep.Marshal()
			if err == nil {
				res.Report = data
			}
		}
		res.Error = job.Err()
	}
	n.steals.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.controlTimeout())
	defer cancel()
	if err := n.postControl(ctx, victim, "/v1/cluster/stolen", res); err != nil {
		n.logf("cluster: returning stolen job %s to %s: %v", sj.ID, victim, err)
	}
}

// postControlDecode is postControl plus a decoded JSON response.
func (n *Node) postControlDecode(ctx context.Context, peer, path string, v, out any) error {
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
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s%s: %s", peer, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
