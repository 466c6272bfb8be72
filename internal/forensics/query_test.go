package forensics

import (
	"testing"
	"time"

	"iotsec/internal/journal"
)

func digestAt(id string, kind, device string, sev journal.Severity, opened time.Time) Digest {
	return Digest{ID: id, Kind: kind, Device: device, Severity: sev, OpenedAt: opened}
}

// TestQueryFilters: each filter dimension narrows independently.
func TestQueryFilters(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	ds := []Digest{
		digestAt("inc-1", KindAnomaly, "cam", journal.Warn, base),
		digestAt("inc-2", KindProfileViolation, "wemo", journal.Critical, base.Add(time.Minute)),
		digestAt("inc-3", KindAnomaly, "wemo", journal.Info, base.Add(2*time.Minute)),
		digestAt("inc-4", KindFailover, "", journal.Critical, base.Add(3*time.Minute)),
	}
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 4},
		{"kind", Query{Kind: KindAnomaly}, 2},
		{"device", Query{Filter: journal.Filter{Device: "wemo"}}, 2},
		{"severity", Query{Filter: journal.Filter{MinSeverity: journal.Critical}}, 2},
		{"since", Query{Filter: journal.Filter{Since: base.Add(90 * time.Second)}}, 2},
		{"until", Query{Filter: journal.Filter{Until: base.Add(90 * time.Second)}}, 2},
		{"range", Query{Filter: journal.Filter{Since: base.Add(30 * time.Second), Until: base.Add(150 * time.Second)}}, 2},
		{"combined", Query{Filter: journal.Filter{Device: "wemo", MinSeverity: journal.Critical}, Kind: KindProfileViolation}, 1},
	}
	for _, tc := range cases {
		if page, total := tc.q.Apply(ds); total != tc.want || len(page) != tc.want {
			t.Errorf("%s: matched %d (page %d), want %d", tc.name, total, len(page), tc.want)
		}
	}
}

// TestQueryPagination: offset/limit page a stable ordering while total
// reports the full match count.
func TestQueryPagination(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	var ds []Digest
	for i := 0; i < 10; i++ {
		ds = append(ds, digestAt(IncidentID(uint64(i+1)), KindAnomaly, "cam", journal.Warn, base.Add(time.Duration(i)*time.Second)))
	}
	page, total := Query{Offset: 3, Filter: journal.Filter{Limit: 4}}.Apply(ds)
	if total != 10 {
		t.Fatalf("total = %d, want 10 regardless of the page", total)
	}
	if len(page) != 4 || page[0].ID != ds[3].ID {
		t.Fatalf("page = %d starting %s, want 4 starting %s", len(page), page[0].ID, ds[3].ID)
	}
	if page, _ := (Query{Offset: 20}).Apply(ds); page != nil {
		t.Fatal("offset past the end must return an empty page")
	}
	if page, _ := (Query{}).Apply(ds); len(page) != 10 {
		t.Fatal("limit 0 means no cap")
	}
}
