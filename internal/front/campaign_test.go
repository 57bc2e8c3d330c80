package front

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scarecrow/internal/campaign"
)

// launchFront POSTs a manifest to the front and returns the campaign ID
// and total.
func launchFront(t *testing.T, ts *httptest.Server, manifest string) (string, int) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/campaign", manifest)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("launch = %d: %s", resp.StatusCode, body)
	}
	var launched struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(body, &launched); err != nil {
		t.Fatalf("decoding launch: %v", err)
	}
	return launched.ID, launched.Total
}

// waitFrontDone polls the front snapshot until the campaign is
// terminal.
func waitFrontDone(t *testing.T, ts *httptest.Server, id string) campaign.Summary {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		sum := frontSnapshot(t, ts, id)
		if sum.State != campaign.StateRunning {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not finish: %+v", id, sum)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func frontSnapshot(t *testing.T, ts *httptest.Server, id string) campaign.Summary {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaign/" + id)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var sum campaign.Summary
	if err := json.Unmarshal(readBody(t, resp), &sum); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	return sum
}

// checkMergedStream asserts the merged-stream invariants on a full
// from-zero read: dense front sequence numbers, exactly one verdict per
// cell, one terminal summary. Returns verdict counts per cell key.
func checkMergedStream(t *testing.T, evs []sseEvent, total int) map[string]int {
	t.Helper()
	perCell := make(map[string]int)
	verdicts := 0
	summaries := 0
	for i, e := range evs {
		if e.id != uint64(i)+evs[0].id {
			t.Fatalf("sparse merged sequence at %d: id %d follows %d", i, e.id, evs[0].id)
		}
		switch e.kind {
		case "verdict":
			verdicts++
			perCell[cellKey(e.ev.Specimen, e.ev.Profile, e.ev.Seed)]++
		case "summary":
			summaries++
			if i != len(evs)-1 {
				t.Fatalf("summary at %d is not terminal", i)
			}
		}
	}
	if verdicts != total || summaries != 1 {
		t.Fatalf("merged stream carried %d verdicts, %d summaries; want %d, 1", verdicts, summaries, total)
	}
	for key, n := range perCell {
		if n != 1 {
			t.Fatalf("cell %s reported %d times in the merged stream", key, n)
		}
	}
	if len(perCell) != total {
		t.Fatalf("%d distinct cells reported, want %d", len(perCell), total)
	}
	return perCell
}

// A cross-product manifest fans out across both backends — each backend
// runs only the cells its shard owns — and the merged stream carries
// every cell exactly once under a dense front-level sequence.
func TestCampaignFanOutAndMerge(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	id, total := launchFront(t, ts, `{"specimens":["kasidet","wannacry","locky"],"seeds":[1,2,3,4]}`)
	if total != 12 {
		t.Fatalf("total = %d, want 12", total)
	}
	sum := waitFrontDone(t, ts, id)
	if sum.State != campaign.StateDone || sum.Completed != 12 || sum.Errors != 0 {
		t.Fatalf("summary = %+v", sum)
	}

	resp, err := http.Get(ts.URL + "/v1/campaign/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp.Body)
	resp.Body.Close()
	checkMergedStream(t, evs, 12)

	// Both backends really share the sweep: each ran a strict subset.
	for i, tb := range []*testBackend{b0, b1} {
		sums := tb.eng.List()
		if len(sums) != 1 {
			t.Fatalf("backend %d ran %d campaigns, want 1", i, len(sums))
		}
		if sums[0].Total == 0 || sums[0].Total >= 12 {
			t.Fatalf("backend %d owned %d cells; fan-out did not shard", i, sums[0].Total)
		}
		if sums[0].Completed != sums[0].Total {
			t.Fatalf("backend %d sub-campaign incomplete: %+v", i, sums[0])
		}
	}
}

// Last-Event-ID resume over the merged stream: a reconnecting client
// sees exactly the events after its last-seen front sequence number.
func TestMergedStreamResume(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	id, total := launchFront(t, ts, `{"specimens":["kasidet","wannacry"],"seeds":[1,2,3]}`)
	waitFrontDone(t, ts, id)

	full := readSSEFrom(t, ts, id, 0)
	checkMergedStream(t, full, total)
	mid := full[2].id

	resumed := readSSEFrom(t, ts, id, mid)
	if len(resumed) != len(full)-3 {
		t.Fatalf("resume after %d returned %d events, want %d", mid, len(resumed), len(full)-3)
	}
	for i, e := range resumed {
		want := full[i+3]
		if e.id != want.id || e.kind != want.kind || e.ev.Specimen != want.ev.Specimen {
			t.Fatalf("resumed event %d = %+v, want %+v", i, e, want)
		}
	}
}

// Resuming the finished merged stream at or past its summary answers an
// immediate, empty 204 No Content — the same end-of-stream signal a
// single backend gives — instead of hanging.
func TestMergedStreamResumeFinishedEnds(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	id, total := launchFront(t, ts, `{"specimens":["kasidet","wannacry"],"seeds":[1,2]}`)
	waitFrontDone(t, ts, id)
	full := readSSEFrom(t, ts, id, 0)
	checkMergedStream(t, full, total)
	summarySeq := full[len(full)-1].id

	client := &http.Client{Timeout: 2 * time.Second}
	for _, tc := range []struct {
		name, lastEventID, query string
	}{
		{"Last-Event-ID=summary", fmt.Sprint(summarySeq), ""},
		{"after=summary", "", fmt.Sprintf("?after=%d", summarySeq)},
		{"after>summary", "", fmt.Sprintf("?after=%d", summarySeq+10)},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaign/"+id+"/events"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.lastEventID != "" {
			req.Header.Set("Last-Event-ID", tc.lastEventID)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusNoContent || len(body) != 0 {
			t.Fatalf("%s: status %d with %d body bytes, want an empty 204", tc.name, resp.StatusCode, len(body))
		}
	}
}

// A client resuming from before the front ring's oldest retained event
// gets a snapshot carrying the true aggregate, then the tail.
func TestMergedStreamSnapshotOnGap(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{EventRing: 4}, b0)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	id, total := launchFront(t, ts, `{"specimens":["kasidet"],"seeds":[1,2,3,4,5,6,7,8,9,10]}`)
	waitFrontDone(t, ts, id)

	evs := readSSEFrom(t, ts, id, 0)
	if len(evs) == 0 || evs[0].kind != "snapshot" {
		t.Fatalf("gap resume did not open with a snapshot: %+v", evs)
	}
	snap := evs[0].ev.Summary
	if snap == nil || snap.Completed != total || snap.Total != total {
		t.Fatalf("snapshot aggregate wrong: %+v", snap)
	}
	last := evs[len(evs)-1]
	if last.kind != "summary" || last.ev.Summary.Completed != total {
		t.Fatalf("stream after snapshot did not end in the summary: %+v", last)
	}
}

// One backend's own event ring wraps while the front is disconnected
// from it. On reconnect the backend sends snapshot-on-gap; the follower
// sweeps the hidden cells in a fresh round, and the merged view stays
// consistent — every cell exactly once, correct aggregate.
func TestBackendRingWrapSelfHeals(t *testing.T) {
	b0 := newTestBackend(t, false, campaign.Options{EventRing: 4})
	f := startFront(t, Options{HealthInterval: time.Hour}, b0)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	// Cut the follower's stream as soon as the sub-campaign lands: the
	// backend sweeps all 16 cells while the front is parked, wrapping
	// its 4-event ring.
	id, total := launchFront(t, ts, `{"specimens":["kasidet","wannacry"],"seeds":[1,2,3,4,5,6,7,8]}`)
	waitBackendHasCampaigns(t, b0, 1)
	b0.swap.setDown()
	b0.ts.CloseClientConnections()
	waitBackendIdle(t, b0, 1)
	b0.swap.setUp()

	sum := waitFrontDone(t, ts, id)
	if sum.State != campaign.StateDone || sum.Completed != total || sum.Errors != 0 {
		t.Fatalf("summary after ring wrap = %+v", sum)
	}
	evs := readSSEFrom(t, ts, id, 0)
	checkMergedStream(t, evs, total)
	// The self-heal really took a second backend round.
	if got := len(b0.eng.List()); got < 2 {
		t.Fatalf("backend ran %d campaigns; ring wrap should have forced a recovery round", got)
	}
}

// A backend dying mid-campaign and restarting from its WAL checkpoint:
// the follower re-finds the resumed sub-campaign by tag, committed
// cells replay as cache hits, and the merged stream still reports every
// cell exactly once with no losses and no duplicates.
func TestBackendRestartMidCampaignResumes(t *testing.T) {
	b0 := newTestBackend(t, true, campaign.Options{CheckpointEvery: 1})
	b1 := newTestBackend(t, false, campaign.Options{})
	f := startFront(t, Options{HealthInterval: time.Hour}, b0, b1)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	id, total := launchFront(t, ts, `{"specimens":["kasidet","wannacry","locky"],"seeds":[1,2,3,4,5,6]}`)

	// Let some progress land, then kill the persistent backend.
	deadline := time.Now().Add(30 * time.Second)
	for frontSnapshot(t, ts, id).Completed < 3 {
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress before the crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b0.crash()
	b0.restart(campaign.Options{CheckpointEvery: 1})

	sum := waitFrontDone(t, ts, id)
	if sum.State != campaign.StateDone || sum.Completed != total || sum.Errors != 0 {
		t.Fatalf("summary after crash+restart = %+v", sum)
	}
	evs := readSSEFrom(t, ts, id, 0)
	checkMergedStream(t, evs, total)
}

// readSSEFrom reads a front campaign stream to EOF with a resume
// position (0 = from the start), via the Last-Event-ID header when
// nonzero.
func readSSEFrom(t *testing.T, ts *httptest.Server, id string, after uint64) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaign/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", after))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	return readSSE(t, resp.Body)
}

// waitBackendHasCampaigns waits until a backend's engine has launched
// at least n campaigns.
func waitBackendHasCampaigns(t *testing.T, tb *testBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for len(tb.eng.List()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("backend never saw %d campaigns", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitBackendIdle waits until a backend's engine reports at least n
// campaigns all terminal.
func waitBackendIdle(t *testing.T, tb *testBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		sums := tb.eng.List()
		done := 0
		for _, s := range sums {
			if s.State != campaign.StateRunning {
				done++
			}
		}
		if len(sums) >= n && done == len(sums) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never went idle: %+v", sums)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
