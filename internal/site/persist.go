package site

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"backtrace/internal/ids"
	"backtrace/internal/obs"
	"backtrace/internal/transport"
)

// This file implements site checkpointing and crash recovery. The paper
// targets persistent object stores (Thor), where a site's objects and its
// inter-site reference lists survive crashes while in-flight protocol
// state does not.
//
// Durable state: the heap (objects, fields, persistent roots), the inref
// table (source lists, per-source distances, garbage flags, back
// thresholds), and the outref table (distances, back thresholds). Volatile
// state — application roots (mutator variables), insert-barrier pins,
// activation frames, visit marks, and the computed back information — is
// deliberately NOT checkpointed: the paper's timeout rules already cover a
// participant that forgets a trace (peers assume Live, Section 4.6), and
// back information is recomputed by the first post-recovery local trace.
//
// Until that first trace runs, every restored ioref carries the transfer-
// barrier clean mark: a back trace visiting the recovering site returns
// Live (safe), exactly the "clean until the next local trace" state the
// barriers already create.

// snapshotVersion identifies the checkpoint record layout.
const snapshotVersion = 1

// Checkpoints are framed like wire messages: a magic string naming the file
// type, then one format byte selecting the payload encoding, then the
// payload. The frame lets the payload encoding evolve independently of the
// record layout (snapshotRec.Version) and rejects non-checkpoint files
// before the decoder touches them.
var checkpointMagic = []byte("DGCK")

// checkpointFormatGob is the only payload encoding so far: a gob-encoded
// snapshotRec.
const checkpointFormatGob = 0x01

// decodeSnapshot reads a framed checkpoint stream into a snapshotRec and
// validates the frame and the record version.
func decodeSnapshot(r io.Reader) (snapshotRec, error) {
	head := make([]byte, len(checkpointMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return snapshotRec{}, fmt.Errorf("checkpoint: read frame: %w", err)
	}
	if !bytes.Equal(head[:len(checkpointMagic)], checkpointMagic) {
		return snapshotRec{}, fmt.Errorf("checkpoint: no %s frame", checkpointMagic)
	}
	if format := head[len(checkpointMagic)]; format != checkpointFormatGob {
		return snapshotRec{}, fmt.Errorf("checkpoint: unsupported payload format 0x%02x", format)
	}
	var rec snapshotRec
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return snapshotRec{}, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if rec.Version != snapshotVersion {
		return snapshotRec{}, fmt.Errorf("checkpoint: unsupported record version %d", rec.Version)
	}
	return rec, nil
}

type objectRec struct {
	ID     ids.ObjID
	Fields []ids.Ref
	Size   int
	Root   bool
}

type sourceRec struct {
	Site ids.SiteID
	Dist int
}

type inrefRec struct {
	Obj           ids.ObjID
	Sources       []sourceRec
	Garbage       bool
	BackThreshold int
}

type outrefRec struct {
	Target        ids.Ref
	Distance      int
	BackThreshold int
}

type snapshotRec struct {
	Version int
	Site    ids.SiteID
	NextObj ids.ObjID
	Objects []objectRec
	Inrefs  []inrefRec
	Outrefs []outrefRec
	// SuspThreshold records T for readers of the image; Restore takes T
	// from its Config.
	SuspThreshold int
	// Incarnation is the site's session epoch at checkpoint time (zero when
	// the network has no session layer). Recovery restarts with a strictly
	// larger incarnation so peers reset their link sessions instead of
	// replaying stale traffic into the new lifetime. Gob tolerates the
	// field's absence in old checkpoints, so the version stays unchanged.
	Incarnation uint64
	// NextTrace is the back-trace sequence counter at checkpoint time.
	// Restore seeds the new incarnation's counter past it (see
	// traceSeqRestartSkip): trace ids must stay unique across incarnations
	// because peers keep per-trace visit marks — a reissued id would make a
	// fresh trace read the dead incarnation's marks as its own visits and
	// flag live structures Garbage. Gob tolerates absence in old
	// checkpoints.
	NextTrace uint64
}

// traceSeqRestartSkip is how far past the checkpointed trace counter a
// restored incarnation starts. A checkpoint can predate the crash (the
// production Checkpoint API is periodic), so the dead incarnation may have
// issued ids beyond the recorded counter; skipping a generous block keeps
// the new incarnation out of any sequence range the old one could
// plausibly have consumed.
const traceSeqRestartSkip = 1 << 20

// WriteCheckpoint serializes the site's durable state. It takes the site
// write lock, which excludes every mutator and handler and so yields a
// consistent cut. Encoding happens after the lock is released.
func (s *Site) WriteCheckpoint(w io.Writer) error {
	s.mu.Lock()
	rec := snapshotRec{
		Version:       snapshotVersion,
		Site:          s.cfg.ID,
		NextObj:       s.heap.NextID(),
		SuspThreshold: s.cfg.SuspicionThreshold,
	}
	if sn, ok := s.cfg.Network.(transport.SessionNetwork); ok {
		rec.Incarnation = sn.Incarnation(s.cfg.ID)
	}
	rec.NextTrace = s.engine.TraceSeq()
	s.heap.EachObject(func(obj ids.ObjID, fields []ids.Ref, size int, root bool) {
		rec.Objects = append(rec.Objects, objectRec{ID: obj, Fields: slices.Clone(fields), Size: size, Root: root})
	})
	for _, in := range s.table.Inrefs() {
		ir := inrefRec{Obj: in.Obj, Garbage: in.Garbage, BackThreshold: in.BackThreshold}
		for _, src := range in.SourceSites() {
			ir.Sources = append(ir.Sources, sourceRec{Site: src, Dist: in.Sources[src]})
		}
		rec.Inrefs = append(rec.Inrefs, ir)
	}
	for _, o := range s.table.Outrefs() {
		rec.Outrefs = append(rec.Outrefs, outrefRec{
			Target:        o.Target,
			Distance:      o.Distance,
			BackThreshold: o.BackThreshold,
		})
	}
	s.mu.Unlock()

	if _, err := w.Write(append(append([]byte(nil), checkpointMagic...), checkpointFormatGob)); err != nil {
		return fmt.Errorf("site %v: write checkpoint header: %w", s.cfg.ID, err)
	}
	if err := gob.NewEncoder(w).Encode(rec); err != nil {
		return fmt.Errorf("site %v: encode checkpoint: %w", s.cfg.ID, err)
	}
	return nil
}

// Checkpoint writes the durable state to a file, atomically (temp file +
// rename), so a crash during checkpointing never corrupts the previous
// checkpoint.
func (s *Site) Checkpoint(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("site %v: checkpoint: %w", s.cfg.ID, err)
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteCheckpoint(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("site %v: checkpoint sync: %w", s.cfg.ID, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("site %v: checkpoint close: %w", s.cfg.ID, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("site %v: checkpoint rename: %w", s.cfg.ID, err)
	}
	s.mu.Lock()
	s.emit(obs.Event{Kind: obs.CheckpointWritten})
	s.mu.Unlock()
	return nil
}

// Restore builds a site from a checkpoint, registers it on cfg.Network,
// and returns it. cfg.ID must match the checkpointed site. Restored iorefs
// start barrier-clean; run a local trace to recompute distances and back
// information.
func Restore(cfg Config, r io.Reader) (*Site, error) {
	rec, err := decodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("restore site: %w", err)
	}
	if cfg.ID == ids.NoSite {
		cfg.ID = rec.Site
	}
	if cfg.ID != rec.Site {
		return nil, fmt.Errorf("restore site: checkpoint is for %v, config says %v", rec.Site, cfg.ID)
	}
	s := New(cfg)
	if err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, o := range rec.Objects {
			// An id past the allocation mark is corrupt, and would make the
			// heap widen its page directory out to it.
			if o.ID > rec.NextObj {
				return fmt.Errorf("restore site %v: object %v is past the allocation mark %v", cfg.ID, o.ID, rec.NextObj)
			}
			if err := s.heap.Install(o.ID, o.Fields, o.Size, o.Root); err != nil {
				return fmt.Errorf("restore site %v: %w", cfg.ID, err)
			}
		}
		s.heap.SetNextID(rec.NextObj)
		for _, ir := range rec.Inrefs {
			in := s.table.EnsureInref(ir.Obj)
			for _, src := range ir.Sources {
				s.table.SetSource(ir.Obj, src.Site, src.Dist)
			}
			in.Garbage = ir.Garbage
			in.BackThreshold = ir.BackThreshold
			in.Barrier = !ir.Garbage // conservatively clean until the first trace
		}
		for _, orc := range rec.Outrefs {
			o, _ := s.table.EnsureOutref(orc.Target)
			o.Distance = orc.Distance
			o.BackThreshold = orc.BackThreshold
			o.Barrier = true // conservatively clean until the first trace
		}
		// Keep trace ids unique across incarnations (Section 4.7's "unique
		// id" must hold for the site's whole lifetime, crashes included).
		s.engine.SeedTraceSeq(rec.NextTrace + traceSeqRestartSkip)
		s.emit(obs.Event{Kind: obs.SiteRestored})
		return nil
	}(); err != nil {
		return nil, err
	}
	// On a session-layer network, announce the restart: the new incarnation
	// is strictly larger than any the checkpoint saw, and every site named
	// in the checkpoint's reference lists is told to reset its link session
	// (Send would replay stale sequence state otherwise). The in-memory
	// network has no session layer, so it hands the news to the peers
	// directly (the caller has already dropped the dead incarnation's
	// in-flight messages, as a crash does).
	switch nw := cfg.Network.(type) {
	case transport.SessionNetwork:
		nw.NotifyRestart(cfg.ID, rec.Incarnation+1, checkpointPeers(rec))
	case *transport.Net:
		nw.AnnounceRestart(cfg.ID)
	}
	return s, nil
}

// checkpointPeers collects every peer site named in a checkpoint: sources
// of inrefs and owners of outref targets.
func checkpointPeers(rec snapshotRec) []ids.SiteID {
	set := make(map[ids.SiteID]struct{})
	for _, ir := range rec.Inrefs {
		for _, src := range ir.Sources {
			set[src.Site] = struct{}{}
		}
	}
	for _, orc := range rec.Outrefs {
		set[orc.Target.Site] = struct{}{}
	}
	delete(set, rec.Site)
	peers := make([]ids.SiteID, 0, len(set))
	for p := range set {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// DecodeCheckpointAudit decodes a checkpoint into the Audit view of the
// durable state it captured, without constructing a Site. The simulation's
// safety oracle uses it to include crashed sites in global reachability:
// a crashed site's persistent objects are still part of the store and its
// checkpoint is exactly what a future recovery will resurrect.
//
// Volatile state is absent by construction: AppRoots is empty (mutator
// variables die with the crash), and GarbageFlagged reflects the flags at
// checkpoint time.
func DecodeCheckpointAudit(r io.Reader) (ids.SiteID, Audit, error) {
	rec, err := decodeSnapshot(r)
	if err != nil {
		return ids.NoSite, Audit{}, fmt.Errorf("decode checkpoint audit: %w", err)
	}
	a := Audit{
		Objects:      make(map[ids.ObjID][]ids.Ref, len(rec.Objects)),
		Outrefs:      make(map[ids.Ref]struct{}, len(rec.Outrefs)),
		InrefSources: make(map[ids.ObjID][]ids.SiteID, len(rec.Inrefs)),
	}
	for _, o := range rec.Objects {
		a.Objects[o.ID] = append([]ids.Ref(nil), o.Fields...)
		if o.Root {
			a.PersistentRoots = append(a.PersistentRoots, o.ID)
		}
	}
	for _, orc := range rec.Outrefs {
		a.Outrefs[orc.Target] = struct{}{}
	}
	for _, ir := range rec.Inrefs {
		srcs := make([]ids.SiteID, 0, len(ir.Sources))
		for _, src := range ir.Sources {
			srcs = append(srcs, src.Site)
		}
		a.InrefSources[ir.Obj] = srcs
		if ir.Garbage {
			a.GarbageFlagged = append(a.GarbageFlagged, ir.Obj)
		}
	}
	return rec.Site, a, nil
}

// RestoreFile is Restore reading from a checkpoint file.
func RestoreFile(cfg Config, path string) (*Site, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("restore site: %w", err)
	}
	defer f.Close()
	return Restore(cfg, f)
}
