package forensics

import "iotsec/internal/journal"

// Query selects incident digests. Zero-valued fields match everything.
type Query struct {
	// Filter holds the criteria incidents share with journal events:
	// TraceID, Device, MinSeverity, Since/Until (against OpenedAt) and
	// Limit, here the page size (0 = all matches). Leave Type empty:
	// incidents have a Kind instead.
	journal.Filter
	// Kind restricts to one incident kind.
	Kind string
	// Offset skips that many matches (pagination).
	Offset int
}

// Matches applies the filter to one digest.
func (q Query) Matches(d Digest) bool {
	if q.Kind != "" && d.Kind != q.Kind {
		return false
	}
	return q.Filter.Matches(journal.Event{
		TraceID: d.TraceID, Device: d.Device, Severity: d.Severity, Wall: d.OpenedAt,
	})
}

// Apply filters an already-ordered digest list and pages it,
// reporting the total match count alongside the page.
func (q Query) Apply(ds []Digest) (page []Digest, total int) {
	matched := make([]Digest, 0, len(ds))
	for _, d := range ds {
		if q.Matches(d) {
			matched = append(matched, d)
		}
	}
	total = len(matched)
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			return nil, total
		}
		matched = matched[q.Offset:]
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched, total
}

// Incidents runs a query against the capturer's open ∪ stored view.
func (c *Capturer) Incidents(q Query) (page []Digest, total int) {
	return q.Apply(c.Digests())
}
