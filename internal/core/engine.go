package core

import (
	"errors"
	"fmt"
	"time"

	"dedupstore/internal/hitset"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// EngineStats counts the background engine's work.
type EngineStats struct {
	ObjectsScanned int64
	ChunksFlushed  int64 // chunks that caused real chunk-pool I/O
	BytesFlushed   int64 // bytes shipped to the chunk pool
	DupChunks      int64 // flushed chunks that already existed in the chunk pool
	NoopFlushes    int64 // dirty slots whose content already matched their chunk (no chunk-pool I/O)
	SkippedHot     int64
	Requeued       int64 // flushes retried because a write raced
	RateAdjusts    int64 // dedup-class weight changes made by rate control
}

// Engine is the background post-processing deduplicator (§4.4.1): worker
// processes scan the per-PG dirty object ID lists, read dirty cached chunks
// from metadata objects, fingerprint them, move them to the chunk pool with
// reference counting, and update the chunk maps — all throttled by the
// watermark rate controller (§4.4.2), which retunes the dedup QoS class
// weight from the foreground load.
type Engine struct {
	s     *Store
	stats EngineStats

	started  bool
	stopReq  bool
	draining bool
	done     []*sim.Signal

	claimed map[string]bool // objects a worker is currently flushing
	pending []string        // dirty OIDs discovered by the last sweep
	inQueue map[string]bool // membership set for pending

	// Watermark rate-control state (ratepolicy.go).
	ratePolicyOn bool  // controller daemon is live
	rateBase     int64 // dedup-class weight to restore when unthrottled
}

func newEngine(s *Store) *Engine {
	return &Engine{s: s, claimed: make(map[string]bool), inQueue: make(map[string]bool)}
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// reg returns the cluster-wide metric registry; engine counters mirror into
// it so `dedupctl metrics` shows flush/GC/cache-agent activity.
func (e *Engine) reg() *metrics.Registry { return e.s.cluster.Metrics() }

// Start spawns the worker processes.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	eng := e.s.cluster.Engine()
	for i := 0; i < e.s.cfg.DedupThreads; i++ {
		e.done = append(e.done, eng.GoDaemon(fmt.Sprintf("dedup.worker%d", i), e.workerLoop))
	}
	e.startRatePolicy()
}

// RequestStop asks workers to exit after their current object.
func (e *Engine) RequestStop() { e.stopReq = true }

// Drain switches workers into drain mode: they keep flushing until every
// dirty list is empty, then exit. Wait on the returned signals completing
// via WaitIdle.
func (e *Engine) Drain() { e.draining = true }

// WaitIdle blocks p until all workers have exited (use after Drain or
// RequestStop).
func (e *Engine) WaitIdle(p *sim.Proc) { sim.WaitAll(p, e.done...) }

// DrainAndWait flushes all outstanding dirty objects and stops the workers.
func (e *Engine) DrainAndWait(p *sim.Proc) {
	if !e.started {
		e.Start()
	}
	e.Drain()
	e.WaitIdle(p)
	e.started = false
	e.draining = false
	e.stopReq = false
	e.done = nil
}

func (e *Engine) workerLoop(p *sim.Proc) {
	s := e.s
	for !e.stopReq {
		oid, ok := e.nextDirty(p)
		if !ok {
			if e.draining && len(e.claimed) == 0 {
				return
			}
			p.Sleep(s.cfg.ScanInterval)
			continue
		}
		gw, hostName, err := s.metaPrimaryGW(oid, qos.Dedup)
		if err != nil {
			continue
		}
		e.claimed[oid] = true
		_ = e.flushObject(p, gw, hostName, oid, false)
		delete(e.claimed, oid)
	}
}

// nextDirty returns the next unclaimed dirty object ID (§4.4.1 step 1).
// Workers share a pending queue refilled by sweeping every per-PG dirty
// list, so list scans amortize across many claims.
func (e *Engine) nextDirty(p *sim.Proc) (string, bool) {
	s := e.s
	for attempt := 0; attempt < 2; attempt++ {
		for len(e.pending) > 0 {
			oid := e.pending[0]
			e.pending = e.pending[1:]
			delete(e.inQueue, oid)
			if e.claimed[oid] {
				continue
			}
			// Hot objects stay on the dirty list for a later cycle (§3.2),
			// except during a drain, which force-flushes everything.
			if !e.draining && s.cache.SkipFlush(p.Now(), oid) {
				e.stats.SkippedHot++
				e.reg().Counter("dedup_skipped_hot_total").Inc()
				continue
			}
			return oid, true
		}
		if attempt > 0 {
			break
		}
		// Sweep all dirty lists to refill the queue.
		gw := s.hostGW(anyHost(s))
		for _, listOID := range s.dirtyListAll() {
			oids, err := gw.OmapList(p, s.meta, listOID, 64)
			if err != nil {
				continue
			}
			for _, oid := range oids {
				if !e.claimed[oid] && !e.inQueue[oid] {
					e.pending = append(e.pending, oid)
					e.inQueue[oid] = true
				}
			}
		}
	}
	return "", false
}

func anyHost(s *Store) string {
	hostName, err := s.cluster.PrimaryHost(s.meta, "sys.scan")
	if err != nil {
		panic("core: cluster has no OSDs")
	}
	return hostName
}

// flushObject deduplicates every dirty chunk of one metadata object
// (§4.4.1 steps 2–6). force bypasses the hot-object exemption and rate
// control (used by ModeFlushThrough and final drains); rate control claims
// one dedup-class admission slot per chunk via the QoS group's WaitTurn.
func (e *Engine) flushObject(p *sim.Proc, gw *rados.Gateway, hostName, oid string, force bool) error {
	s := e.s
	e.stats.ObjectsScanned++
	e.reg().Counter("dedup_objects_scanned_total").Inc()
	sp := s.cluster.Trace().Start(p, "dedup.flush").SetOp(s.meta.Name, "", 0)
	defer sp.Finish(p)

	// Claim: remove from the dirty list first; any racing client write
	// re-adds the object (its OmapSet is idempotent), so nothing is lost.
	if err := gw.Mutate(p, s.meta, s.dirtyListOID(oid), func(rados.View) (*store.Txn, error) {
		return store.NewTxn().Create().OmapRm(oid), nil
	}); err != nil {
		return err
	}

	// A CDC flush rewrites the whole object in one transaction and can't
	// pause between chunks, so it prepays one admission slot and bills the
	// rest of its cost postpaid once the chunk count is known.
	if s.cfg.CDC != nil && !force {
		s.cluster.QoS().WaitTurn(p, qos.Dedup)
	}
	var raw []byte
	err := retryUnavailable(p, func() error {
		var e2 error
		raw, e2 = gw.GetXattr(p, s.meta, oid, XattrChunkMap)
		return e2
	})
	if rados.IsUnavailable(err) {
		// Claimed but unreachable: put it back rather than mistake a crash
		// window for deletion and lose the dirty entry.
		e.note(flushRequeued, 0)
		return e.requeueDirty(p, gw, oid)
	}
	if err != nil {
		return nil // deleted meanwhile
	}
	cm, err := UnmarshalChunkMap(raw)
	if err != nil {
		return err
	}
	requeue := false
	if s.cfg.CDC != nil {
		n, raced, err := e.flushObjectCDC(p, gw, hostName, oid, cm)
		if !force {
			s.cluster.QoS().Charge(p, qos.Dedup, int64(n))
		}
		requeue = raced || err != nil
	} else {
		requeue = e.flushEntries(p, gw, hostName, oid, cm, force)
	}
	if requeue {
		e.note(flushRequeued, 0)
		return e.requeueDirty(p, gw, oid)
	}
	return nil
}

// flushEntries flushes every dirty cached slot of a fixed-chunked object
// and reports whether any slot needs another cycle. Each chunk is an
// independent slot, so their chunk-pool I/Os pipeline with bounded
// intra-object parallelism. Rate control (§4.4.2) admits one chunk per slot
// via WaitTurn — the slot spacing is set by the watermark policy, so the
// trickle tracks the measured foreground rate. Forced flushes (flush-through
// mode, explicit drains) are client-visible and never held back.
func (e *Engine) flushEntries(p *sim.Proc, gw *rados.Gateway, hostName, oid string, cm *ChunkMap, force bool) (requeue bool) {
	s := e.s
	queue := sim.NewQueue[Entry]()
	for _, i := range cm.DirtyEntries() {
		if entry := cm.Entries[i]; entry.Cached {
			queue.PushFrom(s.cluster.Engine(), entry)
		}
	}
	workers := s.cfg.FlushParallel
	if n := queue.Len(); workers > n {
		workers = n
	}
	var sigs []*sim.Signal
	for w := 0; w < workers; w++ {
		sigs = append(sigs, p.Go("flush", func(q *sim.Proc) {
			for {
				entry, ok := queue.TryPop()
				if !ok {
					return
				}
				if !force {
					s.cluster.QoS().WaitTurn(q, qos.Dedup)
				}
				if e.stopReq && !e.draining && !force {
					requeue = true
					return
				}
				raced, err := e.flushChunk(q, gw, hostName, oid, entry)
				if err != nil || raced {
					requeue = true
				}
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	return requeue
}

// flushOutcome classifies one flush event for note.
type flushOutcome int

const (
	flushPut      flushOutcome = iota // chunk shipped to the chunk pool
	flushDup                          // shipped, and the chunk already existed
	flushNoop                         // slot already bound to its content; no chunk-pool I/O
	flushRequeued                     // object put back on its dirty list
)

// note counts one flush outcome in both EngineStats and the registry, so
// the fixed and CDC paths report identically.
func (e *Engine) note(o flushOutcome, bytes int) {
	reg := e.reg()
	switch o {
	case flushDup:
		e.stats.DupChunks++
		reg.Counter("dedup_dup_chunks_total").Inc()
		fallthrough
	case flushPut:
		e.stats.ChunksFlushed++
		e.stats.BytesFlushed += int64(bytes)
		reg.Counter("dedup_chunks_flushed_total").Inc()
		reg.Counter("dedup_bytes_flushed_total").Add(int64(bytes))
	case flushNoop:
		e.stats.NoopFlushes++
		reg.Counter("dedup_noop_flushes_total").Inc()
	case flushRequeued:
		e.stats.Requeued++
		reg.Counter("dedup_requeued_total").Inc()
	}
}

// requeueDirty puts a claimed object back on its PG's dirty list. The write
// is retried through transient unavailability: losing it would strand dirty
// cached chunks that no future sweep ever revisits.
func (e *Engine) requeueDirty(p *sim.Proc, gw *rados.Gateway, oid string) error {
	return retryUnavailable(p, func() error { return e.s.listDirty(p, gw, oid) })
}

// EvictStats reports one cold-eviction pass.
type EvictStats struct {
	ObjectsScanned int64
	ChunksEvicted  int64
	BytesEvicted   int64
	SkippedHot     int64
}

// EvictCold is the cache agent's demotion pass (§4.3): clean, flushed
// chunks still cached in metadata objects are evicted when their object has
// gone cold, reclaiming metadata-pool space. (Flush handles dirty chunks;
// this handles chunks kept cached because the object was hot at flush
// time.)
func (e *Engine) EvictCold(p *sim.Proc) EvictStats {
	s := e.s
	var stats EvictStats
	gw := s.hostGW(anyHost(s))
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		stats.ObjectsScanned++
		if s.cache.Hot(p.Now(), oid) {
			stats.SkippedHot++
			continue
		}
		err := gw.Mutate(p, s.meta, oid, func(v rados.View) (*store.Txn, error) {
			cm, err := loadChunkMap(v)
			if err != nil {
				return nil, err
			}
			txn := store.NewTxn()
			changed := false
			for i, entry := range cm.Entries {
				if !entry.Cached || entry.Dirty || entry.ChunkID == "" {
					continue
				}
				cm.Entries[i].Cached = false
				txn.Zero(entry.Start, entry.Len())
				stats.ChunksEvicted++
				stats.BytesEvicted += entry.Len()
				changed = true
			}
			if !changed {
				return nil, nil
			}
			txn.SetXattr(XattrChunkMap, cm.Marshal())
			return txn, nil
		})
		if err != nil && !errors.Is(err, ErrNotFound) {
			continue
		}
	}
	reg := e.reg()
	reg.Counter("cache_agent_passes_total").Inc()
	reg.Counter("cache_agent_chunks_evicted_total").Add(stats.ChunksEvicted)
	reg.Counter("cache_agent_bytes_evicted_total").Add(stats.BytesEvicted)
	reg.Counter("cache_agent_skipped_hot_total").Add(stats.SkippedHot)
	return stats
}

// StartCacheAgent spawns a background demotion daemon that periodically
// evicts cold cached chunks (the flush/evict agent role of Ceph's cache
// tiering). It runs until RequestStop.
func (e *Engine) StartCacheAgent(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	e.s.cluster.Engine().GoDaemon("dedup.cache-agent", func(p *sim.Proc) {
		for !e.stopReq {
			p.Sleep(interval)
			if e.stopReq {
				return
			}
			e.EvictCold(p)
		}
	})
}

// flushChunk deduplicates one dirty chunk slot through the reference
// transfer protocol (rebind.go): an intent on the content-addressed chunk,
// a bind guarded by the slot's generation, then commit and release of the
// chunk the slot previously pointed at. Returns raced=true when a
// concurrent client write invalidated the flush (the slot stays dirty).
func (e *Engine) flushChunk(p *sim.Proc, gw *rados.Gateway, hostName string, oid string, entry Entry) (raced bool, err error) {
	s := e.s
	data, err := gw.Read(p, s.meta, oid, entry.Start, entry.Len())
	if err != nil {
		return false, err
	}
	if int64(len(data)) < entry.Len() {
		data = append(data, make([]byte, entry.Len()-int64(len(data)))...)
	}
	// Fingerprint: the content hash that doubles as the chunk-pool object ID.
	if err := s.cluster.UseHostCPU(p, hostName, s.cluster.Cost().Hash(len(data))); err != nil {
		return false, err
	}
	newID := FingerprintID(data)

	// Adaptive tiering: the flush lands the chunk in the pool the object's
	// temperature selects — cold objects erasure-code, everything else
	// replicates. With tiering off, cold is always false and newPool is the
	// single chunk pool, preserving the static design exactly.
	cold := s.cfg.Tiering.Enabled && s.cache.Temp(p.Now(), oid) == hitset.TempCold
	newPool := s.chunkPoolFor(cold)

	// When the slot already points at the right chunk in the right pool
	// (same content rewritten) no chunk-pool I/O happens, so it must not
	// count as a flush. A same-ID, different-pool slot is a real move: both
	// pools may hold a chunk under the same fingerprint while objects
	// migrate.
	rb := s.newRebind(gw, oid)
	samePlace := entry.ChunkID == newID && entry.Cold == cold
	if samePlace {
		e.note(flushNoop, 0)
	} else {
		existedBefore, _ := gw.Exists(p, newPool, newID)
		if err := rb.put(p, chunkRef{pool: newPool, id: newID, ref: s.slotRef(oid, entry.Start)}, data); err != nil {
			return false, err
		}
		if existedBefore {
			e.note(flushDup, len(data))
		} else {
			e.note(flushPut, len(data))
		}
	}

	keepCached := s.cache.KeepCachedAfterFlush(p.Now(), oid)
	bound, err := rb.bind(p, 0, func(v rados.View) (*store.Txn, bool, []chunkRef, error) {
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, false, nil, err
		}
		i := cur.Find(entry.Start)
		if i < 0 || cur.Entries[i].Gen != entry.Gen {
			return nil, true, nil, nil // deleted, or a newer write: stays dirty
		}
		cs := cur.Entries[i]
		cs.ChunkID = newID
		cs.Dirty = false
		cs.Cached = keepCached
		cs.Cold = cold
		cur.Entries[i] = cs
		txn := store.NewTxn().SetXattr(XattrChunkMap, cur.Marshal())
		if !keepCached {
			// Evict the flushed bytes from the metadata object (the object
			// may end with "no data but only metadata", Fig. 8 object 2).
			txn.Zero(cs.Start, cs.Len())
		}
		// The old binding's pool may differ from the new one (a cross-pool
		// move via re-flush).
		var old []chunkRef
		if entry.ChunkID != "" && !samePlace {
			old = append(old, s.bindingOf(oid, entry))
		}
		return txn, false, old, nil
	})
	return !bound && err == nil, err
}
