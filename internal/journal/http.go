package journal

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// SnapshotJSON is the /debug/journal response shape.
type SnapshotJSON struct {
	TakenAt   time.Time `json:"taken_at"`
	Appended  uint64    `json:"appended_total"`
	TailDrops uint64    `json:"tail_drops_total"`
	Events    []Event   `json:"events"`
}

// parseFilter reads the query-string filter parameters:
//
//	trace=<id>       one causal chain
//	device=<name>    one device
//	type=<type>      one event type
//	since=<dur|rfc3339>  5m = last five minutes; or an absolute time
//	until=<dur|rfc3339>  upper bound of the time range (same forms)
//	sev=<name>       minimum severity (debug|info|warn|critical)
//	limit=<n>        most recent n matches (default 256; 0 = all)
func parseFilter(req *http.Request) (Filter, error) {
	f := Filter{Limit: 256}
	q := req.URL.Query()
	if s := q.Get("trace"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return f, errBadParam{"trace", s}
		}
		f.TraceID = v
	}
	f.Device = q.Get("device")
	f.Type = Type(q.Get("type"))
	if s := q.Get("since"); s != "" {
		t, err := parseTimeBound(s)
		if err != nil {
			return f, errBadParam{"since", s}
		}
		f.Since = t
	}
	if s := q.Get("until"); s != "" {
		t, err := parseTimeBound(s)
		if err != nil {
			return f, errBadParam{"until", s}
		}
		f.Until = t
	}
	if s := q.Get("sev"); s != "" {
		sev, ok := ParseSeverity(s)
		if !ok {
			return f, errBadParam{"sev", s}
		}
		f.MinSeverity = sev
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return f, errBadParam{"limit", s}
		}
		f.Limit = v
	}
	return f, nil
}

// parseTimeBound accepts either a relative duration ("5m" = five
// minutes ago) or an absolute RFC3339 timestamp.
func parseTimeBound(s string) (time.Time, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return time.Now().Add(-d), nil
	}
	return time.Parse(time.RFC3339, s)
}

type errBadParam struct{ name, value string }

func (e errBadParam) Error() string { return "bad " + e.name + " parameter: " + e.value }

// Handler serves the journal (mount at /debug/journal). Plain GETs
// return a JSON snapshot filtered by the query parameters; follow=1
// switches to a streaming follow: the filtered backlog followed by live
// matching events, one JSON object per line, until the client goes
// away.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f, err := parseFilter(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.URL.Query().Get("follow") == "1" {
			j.serveFollow(w, req, f)
			return
		}
		appended, drops := j.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&SnapshotJSON{
			TakenAt:   time.Now(),
			Appended:  appended,
			TailDrops: drops,
			Events:    j.Snapshot(f),
		})
	})
}

// serveFollow streams NDJSON: backlog first, then the live tail.
func (j *Journal) serveFollow(w http.ResponseWriter, req *http.Request, f Filter) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)

	// Subscribe before snapshotting so no event falls in the gap;
	// duplicates across the boundary are suppressed by sequence.
	sub := j.Subscribe(512)
	defer sub.Close()
	var lastSeq uint64
	for _, e := range j.Snapshot(f) {
		if enc.Encode(e) != nil {
			return
		}
		lastSeq = e.Seq
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case <-req.Context().Done():
			return
		case <-sub.Wait():
		}
		wrote := false
		for _, e := range sub.Drain() {
			if e.Seq <= lastSeq || !f.matches(e) {
				continue
			}
			if enc.Encode(e) != nil {
				return
			}
			wrote = true
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
	}
}
