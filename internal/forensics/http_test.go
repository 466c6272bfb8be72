package forensics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotsec/internal/journal"
)

// TestIncidentsHandler: /debug/incidents takes the journal's filter
// parameters plus kind/offset/id/export, answers indented JSON, and
// turns a malformed parameter into a 400 naming it.
func TestIncidentsHandler(t *testing.T) {
	j := journal.New(256)
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, clock := newTestCapturer(t, j, Options{Store: store, Shard: "shard-a"})
	driveChain(j, 42, "cam")
	j.RecordTrace(7, journal.TypeProfileViolation, journal.Critical, "wemo", "unauthorized service")
	driveChain(j, 43, "wemo")
	c.Sync()
	clock.Advance(3 * time.Second)
	c.Sync()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(q string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	list := func(q string) ListJSON {
		t.Helper()
		status, ctype, body := get(q)
		if status != http.StatusOK || ctype != "application/json" || !strings.HasPrefix(body, "{\n  \"taken_at\"") {
			t.Fatalf("GET %s: %d %s %.40q", q, status, ctype, body)
		}
		var l ListJSON
		if err := json.Unmarshal([]byte(body), &l); err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		return l
	}

	for q, want := range map[string]int{
		"":                     3,
		"?device=wemo":         2,
		"?kind=anomaly":        2,
		"?sev=critical":        1,
		"?trace=42":            1,
		"?since=5m":            3, // OpenedAt is the opening event's wall time
		"?until=5m":            0,
		"?type=anomaly":        3, // the journal's parameter, not this surface's
		"?device=wemo&limit=1": 2,
	} {
		if l := list(q); l.Total != want {
			t.Errorf("GET %s: total %d, want %d", q, l.Total, want)
		}
	}
	if l := list("?offset=1&limit=1"); l.Total != 3 || l.Offset != 1 || len(l.Incidents) != 1 {
		t.Errorf("page: total %d offset %d len %d, want 3/1/1", l.Total, l.Offset, len(l.Incidents))
	}

	id := IncidentID(42)
	if status, _, body := get("?id=" + id); status != http.StatusOK || !strings.Contains(body, `"events": [`) {
		t.Errorf("id=: %d %.60q", status, body)
	}
	if status, _, body := get("?id=" + id + "&export=1"); status != http.StatusOK || !strings.Contains(body, `"incident_id"`) {
		t.Errorf("id=&export=1: %d %.60q", status, body)
	}
	if status, _, body := get("?id=inc-nope"); status != http.StatusNotFound || body != "unknown incident inc-nope\n" {
		t.Errorf("unknown id: %d %q", status, body)
	}
	for q, want := range map[string]string{
		"?trace=xyz":    "bad trace parameter: xyz\n",
		"?sev=loud":     "bad sev parameter: loud\n",
		"?since=bogus":  "bad since parameter: bogus\n",
		"?until=bogus":  "bad until parameter: bogus\n",
		"?offset=-1":    "bad offset parameter: -1\n",
		"?limit=minus1": "bad limit parameter: minus1\n",
	} {
		if status, _, body := get(q); status != http.StatusBadRequest || body != want {
			t.Errorf("GET %s: %d %q, want 400 %q", q, status, body, want)
		}
	}
}
