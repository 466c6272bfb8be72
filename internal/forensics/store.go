package forensics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"iotsec/internal/journal"
)

// Store is the durable incident log: incidents are appended as NDJSON
// lines to segment files (incidents-NNNNN.ndjson) under one
// directory. Durable means a sealed incident survives a crash of the
// process, not a power loss: each line is written to the segment
// before Put returns, but nothing calls fsync, so the operating system
// may still hold it in its page cache. Segments rotate at SegmentBytes; when the directory
// exceeds MaxBytes the oldest segments are deleted, newest history
// wins — the same bounded-retention stance as the journal ring, but
// sized for incidents (rare) rather than events (constant). A line
// re-appending an incident ID supersedes earlier lines, so reopening
// a store replays the segments and keeps the latest record per ID.
type Store struct {
	dir string
	opt StoreOptions

	mu          sync.Mutex
	active      *os.File
	activeIdx   int
	activeBytes int64
	segBytes    map[int]int64 // segment index → size on disk
	incidents   map[string]*storedIncident
	appends     uint64
	droppedSegs uint64
	droppedIncs uint64
	closed      bool
}

// storedIncident pairs an incident with the segment holding its
// latest line, so segment eviction knows which records it takes.
type storedIncident struct {
	inc *Incident
	seg int
}

// StoreOptions bounds the store.
type StoreOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// (default 1 MiB).
	SegmentBytes int64
	// MaxBytes caps total on-disk size; oldest segments are deleted to
	// stay under it (default 16 MiB). The active segment is never
	// deleted.
	MaxBytes int64
}

// OpenStore opens (creating if needed) the incident store in dir,
// replaying existing segments into the in-memory index and resuming
// rotation where the previous process stopped.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 1 << 20
	}
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = 16 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("forensics: store dir: %w", err)
	}
	s := &Store{
		dir:       dir,
		opt:       opt,
		segBytes:  make(map[int]int64),
		incidents: make(map[string]*storedIncident),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	// Resume appending to the newest segment, or start the first.
	idx := 0
	for i := range s.segBytes {
		if i > idx {
			idx = i
		}
	}
	if err := s.openSegment(idx); err != nil {
		return nil, err
	}
	return s, nil
}

// segPath names segment files so lexical order is numeric order.
func (s *Store) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("incidents-%05d.ndjson", idx))
}

// replay scans existing segments oldest-first; later lines supersede
// earlier ones per incident ID. A corrupt line (torn final write from
// a crash) is skipped rather than failing the open.
func (s *Store) replay() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("forensics: store scan: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "incidents-%d.ndjson", &idx); n == 1 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		f, err := os.Open(s.segPath(idx))
		if err != nil {
			return fmt.Errorf("forensics: store segment: %w", err)
		}
		info, _ := f.Stat()
		if info != nil {
			s.segBytes[idx] = info.Size()
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var inc Incident
			if json.Unmarshal(line, &inc) != nil || inc.ID == "" {
				continue // torn/corrupt line: keep what parses
			}
			cp := inc
			s.incidents[inc.ID] = &storedIncident{inc: &cp, seg: idx}
		}
		f.Close()
	}
	return nil
}

// openSegment opens the segment file for appending (creating it) and
// records its current size as the rotation watermark. A segment whose
// last line was torn by a crash (no trailing newline) is healed by
// appending one, so the next append starts a fresh line instead of
// concatenating onto — and thereby corrupting — the torn record.
// Nothing already written is rewritten, so a crash during the heal
// loses nothing either.
func (s *Store) openSegment(idx int) error {
	f, err := os.OpenFile(s.segPath(idx), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("forensics: store open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("forensics: store stat: %w", err)
	}
	size := info.Size()
	if size > 0 {
		last := []byte{0}
		if _, err = f.ReadAt(last, size-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
			size++
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("forensics: store heal: %w", err)
		}
	}
	s.active = f
	s.activeIdx = idx
	s.activeBytes = size
	s.segBytes[idx] = size
	return nil
}

// Put durably appends (or supersedes) one incident record: once it
// returns, the record survives a crash of the process, though not a
// power loss (the segment is not fsynced).
func (s *Store) Put(inc *Incident) error {
	line, err := json.Marshal(inc)
	if err != nil {
		return fmt.Errorf("forensics: store marshal: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("forensics: store closed")
	}
	if s.activeBytes > 0 && s.activeBytes+int64(len(line)) > s.opt.SegmentBytes {
		s.active.Close()
		if err := s.openSegment(s.activeIdx + 1); err != nil {
			return err
		}
	}
	n, err := s.active.Write(line)
	s.activeBytes += int64(n)
	s.segBytes[s.activeIdx] = s.activeBytes
	if err != nil {
		return fmt.Errorf("forensics: store append: %w", err)
	}
	s.appends++
	cp := *inc
	cp.Events = append([]journal.Event(nil), inc.Events...)
	s.incidents[inc.ID] = &storedIncident{inc: &cp, seg: s.activeIdx}
	s.enforceCapLocked()
	return nil
}

// enforceCapLocked deletes oldest segments while total size exceeds
// MaxBytes, evicting incidents whose latest record they held.
func (s *Store) enforceCapLocked() {
	for {
		var total int64
		oldest := s.activeIdx
		for idx, b := range s.segBytes {
			total += b
			if idx < oldest {
				oldest = idx
			}
		}
		if total <= s.opt.MaxBytes || oldest == s.activeIdx {
			return
		}
		os.Remove(s.segPath(oldest))
		delete(s.segBytes, oldest)
		s.droppedSegs++
		for id, st := range s.incidents {
			if st.seg == oldest {
				delete(s.incidents, id)
				s.droppedIncs++
			}
		}
	}
}

// Get returns the stored incident by ID.
func (s *Store) Get(id string) (*Incident, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.incidents[id]
	if !ok {
		return nil, false
	}
	return st.inc, true
}

// Digests lists every stored incident's summary (unordered; callers
// sort via queries).
func (s *Store) Digests() []Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Digest, 0, len(s.incidents))
	for _, st := range s.incidents {
		out = append(out, st.inc.Digest())
	}
	return out
}

// StoreStats is the store's accounting snapshot.
type StoreStats struct {
	Dir              string `json:"dir"`
	Segments         int    `json:"segments"`
	Bytes            int64  `json:"bytes"`
	Incidents        int    `json:"incidents"`
	Appends          uint64 `json:"appends_total"`
	DroppedSegments  uint64 `json:"dropped_segments_total"`
	DroppedIncidents uint64 `json:"dropped_incidents_total"`
}

// Stats snapshots the accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, b := range s.segBytes {
		total += b
	}
	return StoreStats{
		Dir:              s.dir,
		Segments:         len(s.segBytes),
		Bytes:            total,
		Incidents:        len(s.incidents),
		Appends:          s.appends,
		DroppedSegments:  s.droppedSegs,
		DroppedIncidents: s.droppedIncs,
	}
}

// Close closes the active segment. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.active.Close()
}
