package front

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
)

// Campaign fan-out. A manifest POSTed to the front expands into its
// explicit cell list, each cell routes to its shard owner, and every
// backend receives one tagged Cells sub-campaign holding exactly the
// cells it owns. One follower goroutine per shard streams that
// backend's SSE events into the front campaign, which re-sequences them
// under a single front-level monotonic counter — so a client of the
// merged stream gets the same contract a single backend gives: dense
// sequence numbers, Last-Event-ID resume, snapshot-on-gap, terminal
// summary.
//
// Followers own crash recovery. A backend that dies mid-sweep is
// checkpointing its sub-campaign into its WAL; when it restarts, its
// engine resumes the sub-campaign under the same tag, and the follower
// — parked on the backend's /healthz — re-finds it by that tag and
// re-streams from the beginning. The per-shard pending set dedupes
// replayed events (first report of a cell wins) and detects loss (cells
// still pending after a backend summary relaunch in a fresh round), so
// the merged stream reports every cell exactly once even across kills.

// frontCampaign is one merged sweep: the shared campaign event log,
// which re-sequences backend verdicts under the front's own counter,
// plus the shard bookkeeping that decides when an unfinished sweep
// aborts.
type frontCampaign struct {
	*campaign.Log
	tag        string       // tag namespace for this campaign's sub-campaigns
	shards     int          // backends owning at least one cell
	shardsDone atomic.Int32 // followers that have stopped
}

// cellKey canonicalizes one cell to the service's routing identity —
// the same string RouteKey yields for the cell's submission, which is
// also reconstructible from a backend verdict event. It is both the
// shard-routing key and the exactly-once dedupe key.
func cellKey(specimen, profile string, seed int64) string {
	spec := "cat:" + specimen
	if len(specimen) >= 4 && specimen[:4] == "syn:" {
		spec = specimen
	}
	if profile == "" {
		profile = string(service.DefaultProfile)
	}
	return fmt.Sprintf("%s|%s|%d", spec, profile, seed)
}

// launchCampaign expands a manifest, shards its cells, and starts the
// per-shard followers.
func (f *Front) launchCampaign(m campaign.Manifest) (*frontCampaign, error) {
	cells, err := m.ExpandCells(f.opts.MaxJobs)
	if err != nil {
		return nil, err
	}
	// Shard by route key. Predicate cells' display names (syn:<fp>) come
	// from the same canonical fingerprint RouteKey uses, so front and
	// backend agree on every cell's identity.
	owned := make([][]campaign.Cell, len(f.backends))
	keys := make([][]string, len(f.backends))
	for _, cl := range cells {
		seed := cl.Seed
		req := service.SubmitRequest{Specimen: cl.Specimen, Predicate: cl.Predicate, Profile: cl.Profile, Seed: &seed}
		key, err := service.RouteKey(req)
		if err != nil {
			return nil, fmt.Errorf("front: cell %q: %w", cl.Specimen, err)
		}
		idx := f.ring.owner(key)
		owned[idx] = append(owned[idx], cl)
		keys[idx] = append(keys[idx], key)
	}

	f.mu.Lock()
	f.nextID++
	id := fmt.Sprintf("f%08d", f.nextID)
	tag := m.Tag
	if tag == "" {
		tag = f.opts.FrontID + "/" + id
	}
	fc := &frontCampaign{Log: campaign.NewLog(id, tag, len(cells), f.opts.EventRing), tag: tag}
	for idx := range owned {
		if len(owned[idx]) > 0 {
			fc.shards++
		}
	}
	f.campaigns[id] = fc
	f.order = append(f.order, id)
	f.mu.Unlock()

	for idx := range owned {
		if len(owned[idx]) == 0 {
			continue
		}
		f.wg.Add(1)
		go f.followShard(fc, idx, owned[idx], keys[idx], m.Quota)
	}
	return fc, nil
}

// followShard drives one backend's share of a campaign to completion,
// across backend deaths and restarts. pending tracks the cells this
// shard still owes the merged stream, keyed by route key; the loop
// terminates only when pending drains (every cell reported exactly
// once) or the front closes.
func (f *Front) followShard(fc *frontCampaign, idx int, cells []campaign.Cell, keys []string, quota int) {
	defer f.wg.Done()
	b := f.backends[idx]
	pending := make(map[string]campaign.Cell, len(cells))
	for i := range cells {
		pending[keys[i]] = cells[i]
	}
	round := 0
	for len(pending) > 0 {
		select {
		case <-f.ctx.Done():
			fc.shardFinished()
			return
		default:
		}
		tag := fmt.Sprintf("%s/b%d", fc.tag, idx)
		if round > 0 {
			// A fresh round sweeps only the unreported cells; committed
			// ones replay from the backend's WAL as instant cache hits.
			tag = fmt.Sprintf("%s/b%d/r%d", fc.tag, idx, round)
		}
		// Adopt the backend's live campaign for this tag if one exists —
		// after a crash, that is the checkpoint-resumed sub-campaign —
		// otherwise launch one covering the pending cells.
		campID, ok := f.findByTag(b, tag)
		if !ok {
			var permanent bool
			var err error
			campID, permanent, err = f.launchSub(b, campaign.Manifest{Cells: pendingCells(pending), Quota: quota, Tag: tag})
			if err != nil {
				if permanent {
					// The backend rejected the manifest outright (4xx):
					// retrying cannot help. Report every pending cell as
					// errored so the merged sweep still terminates.
					f.failPending(fc, pending, err)
					break
				}
				f.waitHealthy(b) // false only when the front closed; the select above exits then
				continue
			}
		}
		if err := f.streamSub(fc, b, campID, pending); err != nil {
			// Stream severed mid-campaign: the backend died or drained.
			// Park until it answers /healthz again, then re-find its
			// resumed campaign by tag and re-stream; the pending map
			// swallows replayed events.
			f.waitHealthy(b)
			continue
		}
		// Clean summary. Anything still pending was dropped from the
		// backend's event ring (or aborted by a drain) — sweep it in a
		// fresh round rather than replaying the whole shard.
		if len(pending) > 0 {
			round++
		}
	}
	fc.shardFinished()
}

func sortedKeys(pending map[string]campaign.Cell) []string {
	keys := make([]string, 0, len(pending))
	for k := range pending { // aggregate + sort below: order-safe
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func pendingCells(pending map[string]campaign.Cell) []campaign.Cell {
	keys := sortedKeys(pending)
	cells := make([]campaign.Cell, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, pending[k])
	}
	return cells
}

// failPending reports every still-pending cell of a shard as errored —
// the terminal path for manifests a backend permanently rejects.
func (f *Front) failPending(fc *frontCampaign, pending map[string]campaign.Cell, cause error) {
	for _, key := range sortedKeys(pending) {
		cl := pending[key]
		name := cl.Specimen
		if name == "" {
			// Predicate cell: its display name is the syn: prefix of its
			// route key.
			name = key[:strings.IndexByte(key, '|')]
		}
		fc.record(campaign.Event{
			Type:     "verdict",
			Specimen: name,
			Profile:  cl.Profile,
			Seed:     cl.Seed,
			Category: "error",
			Error:    cause.Error(),
		})
		delete(pending, key)
	}
}

// findByTag asks one backend for its newest campaign carrying a tag.
func (f *Front) findByTag(b *backend, tag string) (string, bool) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, b.base+"/v1/campaign", nil)
	if err != nil {
		return "", false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", false
	}
	var sums []campaign.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
		return "", false
	}
	id := ""
	for _, s := range sums {
		// Engine IDs are zero-padded to equal width: string max = newest.
		if s.Tag == tag && s.ID > id {
			id = s.ID
		}
	}
	return id, id != ""
}

// launchSub POSTs one sub-campaign manifest to a backend. permanent
// marks rejections retrying cannot fix (4xx).
func (f *Front) launchSub(b *backend, m campaign.Manifest) (id string, permanent bool, err error) {
	body, err := json.Marshal(m)
	if err != nil {
		return "", true, err
	}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodPost, b.base+"/v1/campaign", bytes.NewReader(body))
	if err != nil {
		return "", true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		b.setHealth(false, err.Error(), time.Now())
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("backend %d: launch returned %d: %s", b.idx, resp.StatusCode, bytes.TrimSpace(buf))
		return "", resp.StatusCode >= 400 && resp.StatusCode < 500, err
	}
	var launched struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&launched); err != nil {
		return "", false, fmt.Errorf("backend %d: undecodable launch response: %w", b.idx, err)
	}
	return launched.ID, false, nil
}

// streamSub consumes one backend campaign's SSE stream from the start,
// recording each first-seen pending cell into the merged campaign.
// Returns nil when the backend's terminal summary arrives, an error if
// the stream severs first. Replays are harmless: a cell no longer
// pending is skipped. Snapshot events (the backend's ring dropped
// events) are absorbed — cells they hid stay pending and a later round
// collects them.
func (f *Front) streamSub(fc *frontCampaign, b *backend, campID string, pending map[string]campaign.Cell) error {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, b.base+"/v1/campaign/"+campID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		b.setHealth(false, err.Error(), time.Now())
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend %d: events returned %d", b.idx, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		case len(line) == 0 && data != nil:
			var ev campaign.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("backend %d: undecodable event: %w", b.idx, err)
			}
			data = nil
			switch ev.Type {
			case "verdict":
				key := cellKey(ev.Specimen, ev.Profile, ev.Seed)
				if _, ok := pending[key]; ok {
					delete(pending, key)
					fc.record(ev)
				}
			case "summary":
				return nil
			}
			// Snapshots only mark a gap; nothing to merge.
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("backend %d: event stream ended before the summary", b.idx)
}

// record merges one backend verdict event into the front stream under
// the front's own sequence space, finishing the campaign when the last
// cell lands.
func (fc *frontCampaign) record(ev campaign.Event) {
	if fc.Record(ev) == fc.Total() {
		fc.Finish(campaign.StateDone)
	}
}

// shardFinished marks one follower stopped. Once every follower has
// stopped, a campaign with cells still unreported (front shutdown)
// finishes aborted; a complete one has already finished done, and
// Finish leaves it so.
func (fc *frontCampaign) shardFinished() {
	if int(fc.shardsDone.Add(1)) == fc.shards {
		fc.Finish(campaign.StateAborted)
	}
}

// HTTP surface — the same shapes the single-backend campaign API
// serves, so clients (perfbench's campaign follower included) cannot
// tell a front from a backend.

func (f *Front) handleCampaignLaunch(w http.ResponseWriter, r *http.Request) {
	var m campaign.Manifest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding manifest: %v", err)})
		return
	}
	fc, err := f.launchCampaign(m)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":     fc.ID,
		"total":  fc.Total(),
		"result": "/v1/campaign/" + fc.ID,
		"events": "/v1/campaign/" + fc.ID + "/events",
	})
}

func (f *Front) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fcs := make([]*frontCampaign, 0, len(f.order))
	for _, id := range f.order {
		fcs = append(fcs, f.campaigns[id])
	}
	f.mu.Unlock()
	out := make([]campaign.Summary, 0, len(fcs))
	for _, fc := range fcs {
		out = append(out, fc.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// campaignFor resolves the request's {id} to a front campaign,
// answering 404 when there is none.
func (f *Front) campaignFor(w http.ResponseWriter, r *http.Request) (*frontCampaign, bool) {
	id := r.PathValue("id")
	f.mu.Lock()
	fc, ok := f.campaigns[id]
	f.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown campaign %q", id)})
	}
	return fc, ok
}

func (f *Front) handleCampaignSnapshot(w http.ResponseWriter, r *http.Request) {
	if fc, ok := f.campaignFor(w, r); ok {
		writeJSON(w, http.StatusOK, fc.Snapshot())
	}
}

// handleCampaignEvents streams the merged campaign with the same
// resume contract a single backend serves.
func (f *Front) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	if fc, ok := f.campaignFor(w, r); ok {
		fc.ServeEvents(w, r)
	}
}
