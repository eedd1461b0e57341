package core

import (
	"fmt"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Migration executors: the I/O half of adaptive redundancy. Each executor
// advances one object a single step toward its target form; the policy
// daemon re-walks objects every pass, so multi-step transitions converge
// across passes. Chunk moves and recaches run the same reference transfer
// protocol as the flush (rebind.go), so a crash anywhere mid-migration
// leaves only state GC and the audit pass already know how to reconcile —
// no new crash windows, no stale references.

// recacheObject promotes an object to its hot form: every clean bound
// slot's bytes are read back into the metadata object, the binding is
// dropped (ChunkID="") and the chunk de-referenced — a reference transfer
// with no new chunks. Slots that still hold a cached copy (flushed while
// hot) skip the read — only the binding changes.
//
// Crash windows: the binding swap is one metadata-pool transaction, and a
// slot without a binding holds no reference, so a crash after the swap but
// before the release leaves a stale reference on the chunk — exactly the
// state GC's mark pass detects (binding gone → reference dead) and sweeps.
func (s *Store) recacheObject(p *sim.Proc, gw *rados.Gateway, oid string, cm *ChunkMap, ps *TierStats) error {
	// Read the chunk bytes of every uncached bound slot first, outside the
	// metadata object's PG lock.
	type fill struct {
		e    Entry
		data []byte
	}
	var fills []fill
	for _, e := range cm.Entries {
		if e.Dirty || e.ChunkID == "" || e.Cached {
			continue
		}
		s.cluster.QoS().WaitTurn(p, qos.Tiering)
		data, err := gw.Read(p, s.chunkPoolFor(e.Cold), e.ChunkID, 0, e.Len())
		if err != nil {
			return fmt.Errorf("core: recache read chunk %s: %w", e.ChunkID, err)
		}
		if int64(len(data)) < e.Len() {
			data = append(data, make([]byte, e.Len()-int64(len(data)))...)
		}
		fills = append(fills, fill{e: e, data: data})
	}
	payload := 0
	for _, f := range fills {
		payload += len(f.data)
	}

	// Swap every binding in one transaction, re-checking each slot under the
	// PG lock: a raced slot (newer write, new binding, or gone) is skipped
	// and left to the engine. Only the bindings actually swapped are
	// released.
	swapped := 0
	bound, err := s.newRebind(gw, oid).bind(p, payload, func(v rados.View) (*store.Txn, bool, []chunkRef, error) {
		swapped = 0
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, false, nil, err
		}
		txn := store.NewTxn()
		var old []chunkRef
		recheck := func(e Entry) (Entry, int, bool) {
			i := cur.Find(e.Start)
			if i < 0 {
				return Entry{}, -1, false
			}
			// Cached too: an eviction that raced the reads zeroed the bytes a
			// cached-bound slot would otherwise keep as its only copy.
			cs := cur.Entries[i]
			if cs.Gen != e.Gen || cs.ChunkID != e.ChunkID || cs.Cold != e.Cold || cs.Cached != e.Cached || cs.Dirty {
				return Entry{}, -1, false
			}
			return cs, i, true
		}
		unbind := func(cs Entry, i int) {
			old = append(old, s.bindingOf(oid, cs))
			cs.Cached = true
			cs.ChunkID = ""
			cs.Cold = false
			cs.Gen++
			cur.Entries[i] = cs
		}
		for _, f := range fills {
			cs, i, ok := recheck(f.e)
			if !ok {
				ps.RacedSkips++
				continue
			}
			txn.Write(cs.Start, f.data)
			unbind(cs, i)
			ps.RecachedBytes += int64(len(f.data))
		}
		// Cached-bound slots: the bytes are already in place; just unbind.
		for _, e := range cm.Entries {
			if e.Dirty || e.ChunkID == "" || !e.Cached {
				continue
			}
			cs, i, ok := recheck(e)
			if !ok {
				ps.RacedSkips++
				continue
			}
			unbind(cs, i)
		}
		swapped = len(old)
		if swapped == 0 {
			return nil, false, nil, nil
		}
		txn.SetXattr(XattrChunkMap, cur.Marshal())
		return txn, false, old, nil
	})
	if bound && swapped > 0 {
		ps.Recaches++
	}
	return err
}

// rededupObject demotes a hot-form object: clean cached-only slots are
// marked dirty again (keeping the cached bytes — they are the data) and the
// object goes back on the dirty list, so the ordinary flush engine
// re-deduplicates it, landing chunks in the pool its current temperature
// selects. No references move here, so there is nothing to crash.
func (s *Store) rededupObject(p *sim.Proc, gw *rados.Gateway, oid string, ps *TierStats) error {
	marked := false
	err := gw.Mutate(p, s.meta, oid, func(v rados.View) (*store.Txn, error) {
		marked = false
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, err
		}
		for i, e := range cur.Entries {
			if e.Dirty || !e.Cached || e.ChunkID != "" {
				continue
			}
			e.Dirty = true
			e.Gen++
			cur.Entries[i] = e
			marked = true
		}
		if !marked {
			return nil, nil
		}
		return store.NewTxn().SetXattr(XattrChunkMap, cur.Marshal()), nil
	})
	if err != nil || !marked {
		return err
	}
	ps.Rededups++
	return s.engine.requeueDirty(p, gw, oid)
}

// evictObject drops the hot-time cached copies of an already-deduplicated
// object (clean, bound, cached slots), reclaiming metadata-pool space — the
// per-object form of the cache agent's EvictCold pass.
func (s *Store) evictObject(p *sim.Proc, gw *rados.Gateway, oid string, ps *TierStats) error {
	evicted := 0
	err := gw.Mutate(p, s.meta, oid, func(v rados.View) (*store.Txn, error) {
		evicted = 0
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, err
		}
		txn := store.NewTxn()
		for i, e := range cur.Entries {
			if e.Dirty || !e.Cached || e.ChunkID == "" {
				continue
			}
			cur.Entries[i].Cached = false
			txn.Zero(e.Start, e.Len())
			evicted++
		}
		if evicted == 0 {
			return nil, nil
		}
		txn.SetXattr(XattrChunkMap, cur.Marshal())
		return txn, nil
	})
	if err != nil || evicted == 0 {
		return err
	}
	ps.Evicts++
	ps.EvictedChunks += int64(evicted)
	return nil
}

// migrateObjectChunks moves an object's clean, uncached chunk bindings into
// the toCold pool, one chunk at a time, up to budget moves. Returns how
// many chunks it moved (counted against the pass's migration budget even
// when the move later raced).
func (s *Store) migrateObjectChunks(p *sim.Proc, gw *rados.Gateway, oid string, cm *ChunkMap, toCold bool, budget int, ps *TierStats) (int, error) {
	moved := 0
	for _, e := range cm.Entries {
		if e.Dirty || e.Cached || e.ChunkID == "" || e.Cold == toCold {
			continue
		}
		if moved >= budget {
			break
		}
		s.cluster.QoS().WaitTurn(p, qos.Tiering)
		moved++
		raced, err := s.migrateChunk(p, gw, oid, e, toCold)
		if err != nil {
			return moved, err
		}
		if raced {
			ps.RacedSkips++
			continue
		}
		if toCold {
			ps.DemotedChunks++
		} else {
			ps.PromotedChunks++
		}
		ps.MigratedBytes += e.Len()
	}
	return moved, nil
}

// migrateChunk moves one binding between chunk pools through the
// reference transfer protocol (rebind.go): an intent on the destination
// pool's chunk (created from the source copy if absent), a bind that flips
// the slot's Cold bit unless a client write raced, then commit and release
// of the source pool's reference. The same fingerprint may transiently
// exist in both pools — each pool's copy has its own reference table, and
// refLiveness judges each against the Cold bit.
func (s *Store) migrateChunk(p *sim.Proc, gw *rados.Gateway, oid string, entry Entry, toCold bool) (raced bool, err error) {
	src := s.bindingOf(oid, entry)
	data, err := gw.Read(p, src.pool, entry.ChunkID, 0, entry.Len())
	if err != nil {
		return false, err
	}
	if int64(len(data)) < entry.Len() {
		data = append(data, make([]byte, entry.Len()-int64(len(data)))...)
	}
	rb := s.newRebind(gw, oid)
	if err := rb.put(p, chunkRef{pool: s.chunkPoolFor(toCold), id: entry.ChunkID, ref: src.ref}, data); err != nil {
		return false, err
	}
	bound, err := rb.bind(p, 0, func(v rados.View) (*store.Txn, bool, []chunkRef, error) {
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, false, nil, err
		}
		i := cur.Find(entry.Start)
		if i < 0 {
			return nil, true, nil, nil
		}
		cs := cur.Entries[i]
		if cs.Gen != entry.Gen || cs.ChunkID != entry.ChunkID || cs.Cold != entry.Cold || cs.Dirty {
			return nil, true, nil, nil // newer write or concurrent re-flush; leave it be
		}
		cs.Cold = toCold
		cur.Entries[i] = cs
		return store.NewTxn().SetXattr(XattrChunkMap, cur.Marshal()), false, []chunkRef{src}, nil
	})
	return !bound && err == nil, err
}
