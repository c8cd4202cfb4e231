package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is the results store: an in-memory job table with an optional
// JSON-file spill directory. Every mutation goes through the store so
// handlers always observe a consistent job; reads return copies. With a
// spill directory, every accepted job is written to job-<id>.json as a
// queued record before its submission is answered, and again when it
// turns terminal; all records are loaded back on startup. A restarted
// daemon therefore still serves past results, runs again the jobs its
// predecessor accepted but never finished (Server re-enqueues them),
// and never hands out a recorded ID again.
type Store struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	dir     string   // spill directory, "" for memory-only
	next    int      // next job ID ordinal
	skipped []string // spill files skipped as corrupt on the last load
}

// NewStore opens a store. dir is the spill directory ("" disables
// spilling); existing job-*.json files in it are loaded, and every
// file's ordinal is burned, whatever its state. A truncated or
// corrupt record — a daemon killed mid-crash leaves those — is skipped
// with a warning rather than blocking startup: losing one past result
// beats refusing to serve any. Leftover .tmp files from torn
// write-then-rename spills are removed.
func NewStore(dir string) (*Store, error) {
	s := &Store{jobs: make(map[string]*Job), dir: dir, next: 1}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: spill dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: spill dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".json.tmp") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		// The ordinal advances even for a record that turns out corrupt,
		// so a fresh job can never reuse its ID and silently resurrect
		// the bad file.
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json")); err == nil && n >= s.next {
			s.next = n + 1
		}
		if err := s.loadSpill(name); err != nil {
			s.skipped = append(s.skipped, name)
			fmt.Fprintf(os.Stderr, "service: spill load %s: skipping corrupt record: %v\n", name, err)
		}
	}
	return s, nil
}

// loadSpill reads and installs one spilled job; any failure marks the
// record corrupt.
func (s *Store) loadSpill(name string) error {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.ID == "" {
		return fmt.Errorf("record has no job ID")
	}
	s.jobs[j.ID] = &j
	return nil
}

// SkippedSpills returns the spill files the last load skipped as
// corrupt, in directory order.
func (s *Store) SkippedSpills() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.skipped...)
}

// Add registers a new job under a fresh ID and returns a copy. With a
// spill directory the job's queued record is on disk before Add
// returns; if it cannot be written the job is not registered, and its
// ID is not handed out again.
func (s *Store) Add(spec JobSpec) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("job-%d", s.next)
	s.next++
	//slx:nondet job submission timestamp: API metadata, never reaches exploration results
	j := &Job{ID: id, Spec: spec, State: StateQueued, Submitted: time.Now()}
	if s.dir != "" {
		if err := s.write(*j); err != nil {
			return Job{}, fmt.Errorf("service: record %s: %w", id, err)
		}
	}
	s.jobs[id] = j
	return *j, nil
}

// Delete removes a job and its record (used to roll back an admission
// the queue could not take).
func (s *Store) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	if s.dir != "" {
		// A record left behind only makes a restarted daemon run a job
		// no client was given.
		_ = os.Remove(filepath.Join(s.dir, id+".json"))
	}
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of all jobs, ordered by ID ordinal.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return jobOrdinal(out[i].ID) < jobOrdinal(out[k].ID) })
	return out
}

// Update applies fn to the job under the store lock and spills it when
// fn left it in a terminal state. The *Job passed to fn is the stored
// one; fn must not retain it.
func (s *Store) Update(id string, fn func(*Job)) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	fn(j)
	cp := *j
	s.mu.Unlock()
	if s.dir != "" && terminal(cp.State) {
		// A terminal record that cannot be written leaves the queued one,
		// so a restarted daemon runs the job again.
		_ = s.write(cp)
	}
	return cp, true
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// write writes one job's record to its JSON file (write-then-rename so
// a crashed daemon never leaves a torn file for the next load).
func (s *Store) write(j Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, j.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// jobOrdinal extracts the numeric part of a job ID for ordering.
func jobOrdinal(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}
