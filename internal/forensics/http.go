package forensics

import (
	"net/http"
	"net/url"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// ListJSON is the /debug/incidents list response shape.
type ListJSON struct {
	TakenAt   time.Time     `json:"taken_at"`
	Total     int           `json:"total"`
	Offset    int           `json:"offset,omitempty"`
	Stats     CapturerStats `json:"stats"`
	Incidents []Digest      `json:"incidents"`
}

// parseQuery reads the incident filter parameters: the ones
// /debug/journal takes (journal.ParseFilter: trace, device, sev,
// since/until against OpenedAt, limit — here a page size, default 64)
// plus
//
//	kind=<kind>      one incident kind
//	offset=<n>       pagination
func parseQuery(v url.Values) (q Query, err error) {
	if q.Filter, err = journal.ParseFilter(v, 64); err != nil {
		return q, err
	}
	q.Kind = v.Get("kind")
	q.Offset, err = journal.ParseCount(v, "offset", 0)
	return q, err
}

// Handler serves the incident index (mount at /debug/incidents).
// Plain GETs list digests filtered by the query parameters; id=
// returns one full incident; id=&export=1 returns its replayable
// scenario.
func (c *Capturer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		v := req.URL.Query()
		if id := v.Get("id"); id != "" {
			inc, ok := c.Get(id)
			switch {
			case !ok:
				http.Error(w, "unknown incident "+id, http.StatusNotFound)
			case v.Get("export") == "1":
				telemetry.WriteJSON(w, ExportScenario(inc, 0))
			default:
				telemetry.WriteJSON(w, inc)
			}
			return
		}
		q, err := parseQuery(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		page, total := c.Incidents(q)
		telemetry.WriteJSON(w, &ListJSON{
			TakenAt:   time.Now(),
			Total:     total,
			Offset:    q.Offset,
			Stats:     c.Stats(),
			Incidents: page,
		})
	})
}
