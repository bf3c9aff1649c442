package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"codephage/internal/patch"
)

// The patch artifact registry: every successful transfer's verifiable
// artifact, content-addressed by its key, held in memory and — when
// Config.PatchDir is set — persisted through the same crash-safe
// atomic writer the warm solver state uses, so artifacts survive
// daemon restarts. The registry is append-only: an artifact's key IS
// its content hash, so an entry can never go stale, only be re-put
// with identical bytes.

// PatchInfo is one /patches listing entry: the provenance summary of
// a stored artifact (the artifact itself is fetched by key).
type PatchInfo struct {
	Key       string `json:"key"`
	Recipient string `json:"recipient"`
	Target    string `json:"target,omitempty"`
	Donor     string `json:"donor"`
	Format    string `json:"format"`
	Mode      string `json:"mode"`
	Checks    int    `json:"checks"`
	Bytes     int    `json:"bytes"` // encoded artifact size
}

func patchInfo(key string, a *patch.Artifact, encodedLen int) PatchInfo {
	return PatchInfo{
		Key:       key,
		Recipient: a.Recipient,
		Target:    a.Target,
		Donor:     a.Donor,
		Format:    a.Format,
		Mode:      a.Mode,
		Checks:    len(a.Checks),
		Bytes:     encodedLen,
	}
}

// patchRegistry is the server's artifact table. mem always holds the
// encoded bytes (serving never touches the disk store), store is the
// optional durable layer.
type patchRegistry struct {
	mu    sync.Mutex
	mem   map[string][]byte
	info  map[string]PatchInfo
	store *patch.Store // nil = in-memory only
}

// newPatchRegistry opens the registry, reloading any artifacts a
// previous daemon persisted under dir ("" = in-memory only). Corrupt
// or mismatched entries are skipped with a log line, not fatal: the
// directory is a cache of self-authenticating blobs.
func newPatchRegistry(dir string, logf func(string, ...any)) (*patchRegistry, error) {
	r := &patchRegistry{
		mem:  map[string][]byte{},
		info: map[string]PatchInfo{},
	}
	if dir == "" {
		return r, nil
	}
	st, err := patch.NewStore(dir)
	if err != nil {
		return nil, err
	}
	r.store = st
	keys, err := st.Keys()
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		data, err := st.Bytes(key)
		if err != nil {
			logf("phaged: patch store: skipping %s: %v", key, err)
			continue
		}
		a, err := patch.Decode(data)
		if err != nil {
			logf("phaged: patch store: skipping %s: %v", key, err)
			continue
		}
		r.mem[key] = data
		r.info[key] = patchInfo(key, a, len(data))
	}
	return r, nil
}

// add registers an artifact, persisting it when a store is
// configured. Returns the content key and whether the artifact was
// new (re-adding the same content is a cheap no-op: dedup'd jobs and
// repeated identical transfers all land on one entry).
func (r *patchRegistry) add(a *patch.Artifact) (string, bool, error) {
	data := a.Encode()
	key := a.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.mem[key]; ok {
		return key, false, nil
	}
	if r.store != nil {
		if _, err := r.store.Put(a); err != nil {
			return key, false, err
		}
	}
	r.mem[key] = data
	r.info[key] = patchInfo(key, a, len(data))
	return key, true, nil
}

// bytes returns the encoded artifact for key.
func (r *patchRegistry) bytes(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.mem[key]
	return data, ok
}

// list returns the stored summaries sorted by key.
func (r *patchRegistry) list() []PatchInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PatchInfo, 0, len(r.info))
	for _, pi := range r.info {
		out = append(out, pi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *patchRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.mem)
}

// handlePatches serves the artifact listing.
func (s *Server) handlePatches(w http.ResponseWriter, _ *http.Request) {
	s.WriteJSON(w, http.StatusOK, s.patches.list())
}

// handlePatchPut accepts an uploaded encoded artifact, bounded like
// every other body-reading endpoint (an oversized upload is a 413,
// not a buffer-the-daemon-into-OOM). The artifact authenticates
// itself: its key is its content hash, so the registry accepts any
// well-formed body and dedups re-uploads.
func (s *Server) handlePatchPut(w http.ResponseWriter, r *http.Request) {
	data, status, err := ReadBody(w, r, MaxPatchBody)
	if err != nil {
		s.WriteError(w, status, err)
		return
	}
	a, err := patch.Decode(data)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding artifact: %w", err))
		return
	}
	key, fresh, err := s.patches.add(a)
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if fresh {
		s.counter.patchPuts.Add(1)
	}
	code := http.StatusOK
	if fresh {
		code = http.StatusCreated
	}
	s.WriteJSON(w, code, map[string]any{"key": key, "fresh": fresh})
}

// handlePatch serves one encoded artifact by content key. The bytes
// are the canonical encoding — the client can (and should) verify
// sha256(body) == key.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.patches.bytes(key)
	if !ok {
		s.WriteError(w, http.StatusNotFound, fmt.Errorf("no such patch artifact %q", key))
		return
	}
	s.counter.patchFetches.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if _, err := w.Write(data); err != nil {
		s.counter.encodeFailures.Add(1)
		s.logf("phaged: writing patch artifact: %v", err)
	}
}

// Patches lists the daemon's stored patch artifacts.
func (c *Client) Patches(ctx context.Context) ([]PatchInfo, error) {
	resp, err := c.get(ctx, "/patches")
	if err != nil {
		return nil, err
	}
	out, err := decodeBody[[]PatchInfo](resp)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// PushPatch uploads an encoded artifact, returning its content key
// and whether the daemon had not seen it before.
func (c *Client) PushPatch(ctx context.Context, data []byte) (string, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/patches"), bytes.NewReader(data))
	if err != nil {
		return "", false, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http().Do(hreq)
	if err != nil {
		return "", false, err
	}
	out, err := decodeBody[struct {
		Key   string `json:"key"`
		Fresh bool   `json:"fresh"`
	}](resp)
	if err != nil {
		return "", false, err
	}
	return out.Key, out.Fresh, nil
}

// PatchBytes fetches one encoded artifact by content key and verifies
// it against the key before returning it — a fetched artifact is
// authenticated by its own name, so a corrupt or tampered body never
// reaches the caller.
func (c *Client) PatchBytes(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.get(ctx, "/patches/"+key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, responseError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	a, err := patch.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("phaged: patch %s: %w", key, err)
	}
	if got := a.Key(); got != key {
		return nil, fmt.Errorf("phaged: patch %s: body has content key %s", key, got)
	}
	return data, nil
}

// Patch fetches and decodes one artifact.
func (c *Client) Patch(ctx context.Context, key string) (*patch.Artifact, error) {
	data, err := c.PatchBytes(ctx, key)
	if err != nil {
		return nil, err
	}
	return patch.Decode(data)
}
