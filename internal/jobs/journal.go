package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// journalEntry is one line of the on-disk journal: a schema stamp plus a
// full record snapshot. Snapshots (rather than deltas) make replay trivially
// idempotent — the highest-revision line for an ID wins — and make a torn
// final line (the kill -9 case) droppable without losing anything but that
// one write.
type journalEntry struct {
	Schema int    `json:"schema"`
	Record Record `json:"record"`
}

// journal is the append-only durability log. Every append is synced before
// it returns: the journal exists precisely for the crash case, and an
// unsynced crash journal is a comforting lie. Job throughput is bounded by
// simulations that run for milliseconds to minutes, so one fsync per state
// transition is noise.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// journalPath places the log under dir: dir/journal.jsonl.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// openJournal opens (creating if needed) the journal under dir for appends.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes one record snapshot and syncs it to stable storage.
func (j *journal) append(rec Record) error {
	blob, err := json.Marshal(journalEntry{Schema: SchemaVersion, Record: rec})
	if err != nil {
		return fmt.Errorf("jobs: encode journal entry: %w", err)
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(blob); err != nil {
		return fmt.Errorf("jobs: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// replayJournal reads the journal under dir and returns the surviving
// records in first-seen order (per ID, the highest-revision snapshot wins,
// the later line on a tie). Corrupt or torn lines — the expected debris of
// a kill -9 — and entries from other schema versions are skipped, not
// errors: the journal is a recovery aid, and the worst case of a dropped
// line is recomputing one job. A missing file is an empty history.
func replayJournal(dir string) ([]Record, error) {
	f, err := os.Open(journalPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal for replay: %w", err)
	}
	defer f.Close()
	byID := make(map[string]int)
	var order []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue // torn or corrupt line
		}
		if e.Schema != SchemaVersion || e.Record.ID == "" {
			continue
		}
		if ValidateID(e.Record.ID) != nil {
			continue
		}
		if i, ok := byID[e.Record.ID]; ok {
			if e.Record.Rev >= order[i].Rev {
				order[i] = e.Record
			}
			continue
		}
		byID[e.Record.ID] = len(order)
		order = append(order, e.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobs: scan journal: %w", err)
	}
	return order, nil
}

// compactJournal rewrites the journal as one snapshot per record via
// write-to-temp-then-rename, so history from previous runs stops growing
// the file and a crash mid-compaction leaves the old journal intact.
func compactJournal(dir string, recs []Record) error {
	// First boot runs compaction before the first append, so the directory
	// may not exist yet.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: journal dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "journal.compact*")
	if err != nil {
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		blob, err := json.Marshal(journalEntry{Schema: SchemaVersion, Record: rec})
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("jobs: compact journal: %w", err)
		}
		if _, err := w.Write(append(blob, '\n')); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("jobs: compact journal: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), journalPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compact journal: %w", err)
	}
	return nil
}
