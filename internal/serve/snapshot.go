package serve

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/lp"
)

// Cache snapshots persist the solution cache across restarts so a rebooted
// server does not start with a cold cache under live traffic. The format
// is line-oriented JSON: a header line naming the schema and the engine
// fingerprint, then one line per entry.
//
// Loading re-validates everything: a snapshot written by a different
// engine (any change to the LP tolerance set — see lp.ToleranceFingerprint)
// is dropped wholesale, because cached solutions are only replayable under
// the exact solver configuration that produced them; and each surviving
// entry's key and node vector are validated individually, so a truncated
// or hand-edited file degrades to a partial (or empty) warmup, never a
// poisoned cache.

// snapshotSchema names the on-disk format; bump on incompatible change.
const snapshotSchema = "hslb-cache-snapshot/1"

type snapshotHeader struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
}

type snapshotEntry struct {
	Key string       `json:"key"`
	Sol wireSolution `json:"sol"`
}

// maxSnapshotLine bounds one snapshot line; a canonical solution is a node
// vector plus four diagnostic ints, so 1 MiB is generous.
const maxSnapshotLine = 1 << 20

// engineFingerprint identifies the solver configuration whose cached
// solutions are interchangeable: today that is exactly the LP tolerance
// set.
func engineFingerprint() string { return lp.ToleranceFingerprint() }

// wireSolution is the JSON shape of a cached canonical solution in a
// snapshot. Only proven-optimal solutions are ever cached, so the
// bounded/bestBound/gap triple never travels.
type wireSolution struct {
	Nodes       []int `json:"nodes"`
	SolverNodes int   `json:"solverNodes,omitempty"`
	LPSolves    int   `json:"lpSolves,omitempty"`
	OACuts      int   `json:"oaCuts,omitempty"`
	Pivots      int   `json:"pivots,omitempty"`
}

func toWire(sol *canonSolution) wireSolution {
	return wireSolution{
		Nodes:       sol.nodes,
		SolverNodes: sol.solverNodes,
		LPSolves:    sol.lpSolves,
		OACuts:      sol.oaCuts,
		Pivots:      sol.pivots,
	}
}

// fromWire validates a wire solution and rebuilds the cache entry. The
// bytes come from disk, so they are untrusted: an empty or negative node
// vector is rejected rather than cached.
func fromWire(w wireSolution) (*canonSolution, bool) {
	if len(w.Nodes) == 0 {
		return nil, false
	}
	for _, n := range w.Nodes {
		if n < 1 {
			return nil, false
		}
	}
	if w.SolverNodes < 0 || w.LPSolves < 0 || w.OACuts < 0 || w.Pivots < 0 {
		return nil, false
	}
	return &canonSolution{
		nodes:       append([]int(nil), w.Nodes...),
		solverNodes: w.SolverNodes,
		lpSolves:    w.LPSolves,
		oaCuts:      w.OACuts,
		pivots:      w.Pivots,
	}, true
}

// validCacheKey recognizes the only key shape the cache ever stores: a
// hex-encoded SHA-256 (canon.go). Anything else in a snapshot is noise.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// SaveSnapshot writes the current cache contents. Entries are copied out
// first and encoded after, so the cache lock is not held across writes.
func (s *Server) SaveSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotHeader{Schema: snapshotSchema, Engine: engineFingerprint()}); err != nil {
		return err
	}
	if s.cache != nil {
		for _, e := range s.cache.entries() {
			if err := enc.Encode(snapshotEntry{Key: e.key, Sol: toWire(e.sol)}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadSnapshot warms the cache from a snapshot stream, returning how many
// entries were restored and how many were dropped by re-validation. A
// stale engine fingerprint drops every entry (counted); a malformed header
// is an error (the file is not a snapshot at all).
func (s *Server) LoadSnapshot(r io.Reader) (loaded, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxSnapshotLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("serve: snapshot is empty")
	}
	var hdr snapshotHeader
	if json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Schema != snapshotSchema {
		return 0, 0, fmt.Errorf("serve: not a %s snapshot", snapshotSchema)
	}
	stale := hdr.Engine != engineFingerprint()
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e snapshotEntry
		if json.Unmarshal(line, &e) != nil {
			dropped++
			continue
		}
		sol, ok := fromWire(e.Sol)
		if stale || !ok || !validCacheKey(e.Key) || s.cache == nil {
			dropped++
			continue
		}
		s.cache.Put(e.Key, sol)
		loaded++
	}
	if err := sc.Err(); err != nil {
		return loaded, dropped, err
	}
	s.stats.snapshotLoaded.Add(int64(loaded))
	s.stats.snapshotDropped.Add(int64(dropped))
	return loaded, dropped, nil
}

// SaveSnapshotFile writes the snapshot to opts.SnapshotPath via a
// temporary file + rename, so a crash mid-write never leaves a truncated
// snapshot where the next boot will read it.
func (s *Server) SaveSnapshotFile() error {
	if s.opts.SnapshotPath == "" {
		return fmt.Errorf("serve: no SnapshotPath configured")
	}
	tmp := s.opts.SnapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.SaveSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, s.opts.SnapshotPath)
}

// LoadSnapshotFile warms the cache from opts.SnapshotPath. A missing file
// is a clean cold start, not an error.
func (s *Server) LoadSnapshotFile() (loaded, dropped int, err error) {
	if s.opts.SnapshotPath == "" {
		return 0, 0, fmt.Errorf("serve: no SnapshotPath configured")
	}
	f, err := os.Open(s.opts.SnapshotPath)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return s.LoadSnapshot(f)
}
