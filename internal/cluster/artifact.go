package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"codephage/internal/corpus"
)

// Corpus artifact replication: the ring owner of artifactKey is the
// leader — it builds (or already holds) the donor index and its
// winnowing fingerprint sidecar, and serves both as one
// content-addressed bundle. Followers pull the bundle, verify its
// digest, and hot-swap it into their selector without restart, which
// also persists it through the selector's fsatomic-backed Save path.
// Replication is a warm-start and consistency optimization, never a
// correctness requirement: index building is deterministic, so a
// follower that never pulls builds the identical index locally.

// artifactKey elects the bundle leader through the same ring that
// routes jobs.
const artifactKey = "corpus/artifact/v1"

// artifactBundle is the wire form: both payloads as raw bytes so the
// digest is computed over exactly what travels.
type artifactBundle struct {
	Digest       string          `json:"digest"`
	Index        json.RawMessage `json:"index"`
	Fingerprints json.RawMessage `json:"fingerprints"`
}

func bundleDigest(index, fingerprints []byte) string {
	h := sha256.New()
	h.Write(index)
	h.Write([]byte{0})
	h.Write(fingerprints)
	return hex.EncodeToString(h.Sum(nil))
}

// handleArtifact serves this node's corpus bundle (building the index
// on first access, exactly like /corpus does).
func (n *Node) handleArtifact(w http.ResponseWriter, _ *http.Request) {
	ix, err := n.srv.Corpus().Index()
	if err != nil {
		n.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	fp := ix.Fingerprints()
	if fp == nil {
		// The sidecar is not attached when the pre-filter is disabled;
		// winnow one for the bundle so followers always get both halves.
		fp = corpus.BuildFingerprints(ix)
	}
	ixData, err := json.Marshal(ix)
	if err != nil {
		n.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	fpData, err := json.Marshal(fp)
	if err != nil {
		n.srv.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	n.srv.WriteJSON(w, http.StatusOK, artifactBundle{
		Digest:       bundleDigest(ixData, fpData),
		Index:        ixData,
		Fingerprints: fpData,
	})
}

// PullArtifact fetches the corpus bundle from the ring leader,
// verifies its digest, and hot-swaps it into the local selector. On
// the leader itself it just ensures the index is built. Returns the
// installed (or built) bundle digest.
func (n *Node) PullArtifact(ctx context.Context) (string, error) {
	leader := n.ownerFor(artifactKey)
	self := n.selfURL()
	if leader == "" || leader == self {
		ix, err := n.srv.Corpus().Index()
		if err != nil {
			return "", err
		}
		ixData, err := json.Marshal(ix)
		if err != nil {
			return "", err
		}
		fp := ix.Fingerprints()
		if fp == nil {
			fp = corpus.BuildFingerprints(ix)
		}
		fpData, err := json.Marshal(fp)
		if err != nil {
			return "", err
		}
		return bundleDigest(ixData, fpData), nil
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+"/v1/cluster/artifact", nil)
	if err != nil {
		return "", err
	}
	// The bundle can be large and its build (on the leader's first
	// access) slow; ride the unbounded client under ctx.
	resp, err := n.long.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s/v1/cluster/artifact: %s", leader, resp.Status)
	}
	var bundle artifactBundle
	if err := json.NewDecoder(resp.Body).Decode(&bundle); err != nil {
		return "", fmt.Errorf("decoding artifact bundle: %w", err)
	}
	if got := bundleDigest(bundle.Index, bundle.Fingerprints); got != bundle.Digest {
		return "", fmt.Errorf("artifact bundle digest mismatch: header %s, body %s", bundle.Digest, got)
	}
	ix, err := corpus.Decode(bundle.Index)
	if err != nil {
		return "", fmt.Errorf("decoding replicated index: %w", err)
	}
	fp, err := corpus.DecodeFingerprints(bundle.Fingerprints)
	if err != nil {
		return "", fmt.Errorf("decoding replicated fingerprints: %w", err)
	}
	if err := n.srv.Corpus().Install(ix, fp); err != nil {
		return "", err
	}
	n.artifactPulls.Add(1)
	n.logf("cluster: installed corpus artifact %s from %s (%d signatures)",
		bundle.Digest[:12], leader, len(ix.Signatures))
	return bundle.Digest, nil
}

// pullArtifactAtBoot retries the boot-time pull a few times (the
// leader may still be binding its listener), then gives up: the local
// lazy build produces the identical index anyway.
func (n *Node) pullArtifactAtBoot() {
	for attempt := 0; attempt < 5; attempt++ {
		select {
		case <-n.stopAux:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		_, err := n.PullArtifact(ctx)
		cancel()
		if err == nil {
			return
		}
		n.logf("cluster: boot artifact pull (attempt %d): %v", attempt+1, err)
		select {
		case <-n.stopAux:
			return
		case <-time.After(2 * time.Second):
		}
	}
}
