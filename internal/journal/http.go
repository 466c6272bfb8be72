package journal

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"iotsec/internal/telemetry"
)

// SnapshotJSON is the /debug/journal response shape.
type SnapshotJSON struct {
	TakenAt   time.Time `json:"taken_at"`
	Appended  uint64    `json:"appended_total"`
	TailDrops uint64    `json:"tail_drops_total"`
	Events    []Event   `json:"events"`
}

// ParseFilter reads the filter parameters the debug query surfaces
// share (/debug/journal, /debug/incidents):
//
//	trace=<id>       one causal chain
//	device=<name>    one device
//	since=<dur|rfc3339>  5m = last five minutes; or an absolute time
//	until=<dur|rfc3339>  upper bound of the time range (same forms)
//	sev=<name>       minimum severity (debug|info|warn|critical)
//	limit=<n>        at most n matches (defaultLimit when absent; 0 = all)
//
// A malformed value is an error naming the parameter, fit for a 400.
func ParseFilter(q url.Values, defaultLimit int) (Filter, error) {
	f := Filter{Device: q.Get("device")}
	var err error
	if f.TraceID, err = ParseTrace(q); err != nil {
		return f, err
	}
	if f.Since, err = parseTimeBound(q, "since"); err != nil {
		return f, err
	}
	if f.Until, err = parseTimeBound(q, "until"); err != nil {
		return f, err
	}
	if s := q.Get("sev"); s != "" {
		sev, ok := ParseSeverity(s)
		if !ok {
			return f, errBadParam{"sev", s}
		}
		f.MinSeverity = sev
	}
	f.Limit, err = ParseCount(q, "limit", defaultLimit)
	return f, err
}

// ParseTrace reads trace=<id>, 0 (no trace) when absent.
func ParseTrace(q url.Values) (uint64, error) {
	s := q.Get("trace")
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, errBadParam{"trace", s}
	}
	return v, nil
}

// ParseCount reads a non-negative integer parameter (limit, offset),
// def when absent.
func ParseCount(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return def, errBadParam{name, s}
	}
	return v, nil
}

// parseTimeBound reads a time parameter: a relative duration ("5m" =
// five minutes ago) or an absolute RFC3339 timestamp; zero when absent.
func parseTimeBound(q url.Values, name string) (time.Time, error) {
	s := q.Get(name)
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return time.Now().Add(-d), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return t, errBadParam{name, s}
	}
	return t, nil
}

type errBadParam struct{ name, value string }

func (e errBadParam) Error() string { return "bad " + e.name + " parameter: " + e.value }

// Handler serves the journal (mount at /debug/journal). Plain GETs
// return a JSON snapshot filtered by ParseFilter's parameters (the most
// recent 256 matches by default) plus type=<type>; follow=1 switches to
// a streaming follow: the filtered backlog followed by live matching
// events, one JSON object per line, until the client goes away.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		f, err := ParseFilter(q, 256)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.Type = Type(q.Get("type"))
		if q.Get("follow") == "1" {
			j.serveFollow(w, req, f)
			return
		}
		appended, drops := j.Stats()
		telemetry.WriteJSON(w, &SnapshotJSON{
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
			if e.Seq <= lastSeq || !f.Matches(e) {
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
