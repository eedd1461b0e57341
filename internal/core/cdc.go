package core

import (
	"fmt"

	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Content-defined chunking mode. The paper evaluates static chunking and
// notes CDC as the CPU-heavy alternative (§5); this mode implements it end
// to end as an extension: writes land in the metadata object as usual (the
// write path stays fixed-slot for caching and dirty tracking), but the
// background flush re-chunks the WHOLE object with a rolling-hash CDC
// splitter, so byte-shifted duplicates across objects still collapse.
//
// Mechanics: CDC boundaries depend on the full object content, so a CDC
// flush must (1) materialize the complete object — cached ranges from the
// metadata object, flushed ranges from their chunks — (2) split it, (3)
// reference the new chunks, (4) replace the entire chunk map, and (5)
// de-reference every previously referenced chunk. A racing client write
// (any slot's Gen changed) aborts the map swap and undoes the new
// references, leaving the object dirty for the next cycle — the same
// convergence argument as §4.6.

// flushObjectCDC deduplicates one object, whose chunk map cm the caller
// read, with content-defined chunking. It returns the number of chunks the
// flush processed (for QoS cost billing) and whether the object needs
// another cycle: raced is set when a client write invalidated the flush.
func (e *Engine) flushObjectCDC(p *sim.Proc, gw *rados.Gateway, hostName, oid string, cm *ChunkMap) (n int, raced bool, err error) {
	s := e.s
	if len(cm.DirtyEntries()) == 0 {
		return 0, false, nil
	}
	size := cm.Size()

	// (1) Materialize the full object content and remember each slot's Gen.
	gens := make(map[int64]uint32, len(cm.Entries))
	data := make([]byte, size)
	for _, entry := range cm.Entries {
		gens[entry.Start] = entry.Gen
		var seg []byte
		if entry.Cached {
			seg, err = gw.Read(p, s.meta, oid, entry.Start, entry.Len())
		} else if entry.ChunkID != "" {
			seg, err = gw.Read(p, s.chunk, entry.ChunkID, 0, entry.Len())
		} else {
			continue
		}
		if err != nil {
			return 0, false, fmt.Errorf("core: cdc materialize %s@%d: %w", oid, entry.Start, err)
		}
		copy(data[entry.Start:], seg)
	}

	// (2) Split with the rolling hash; charge its CPU cost on top of the
	// fingerprinting (the expense the paper avoids, §5).
	cost := s.cluster.Cost()
	if err := s.cluster.UseHostCPU(p, hostName, cost.Hash(len(data))+cost.Hash(len(data))/2); err != nil {
		return 0, false, err
	}
	chunks := s.cfg.CDC.Split(0, data)

	// (3) Take an intent on every new chunk (rate control acts through the
	// dedup class weight on gw's scheduler).
	rb := s.newRebind(gw, oid)
	newByOffset := make(map[int64]string, len(chunks))
	for _, c := range chunks {
		id := FingerprintID(c.Data)
		if err := rb.put(p, chunkRef{pool: s.chunk, id: id, ref: s.slotRef(oid, c.Offset)}, c.Data); err != nil {
			return len(chunks), false, err
		}
		e.note(flushPut, len(c.Data))
		newByOffset[c.Offset] = id
	}

	// (4) Swap the whole chunk map if no write raced (any slot's Gen
	// changed), then (5) release every replaced binding. A chunk whose
	// identity at its offset did not change was never re-referenced
	// (putIntentFn is idempotent per committed key), so it is kept.
	keepCached := s.cache.KeepCachedAfterFlush(p.Now(), oid)
	bound, err := rb.bind(p, 0, func(v rados.View) (*store.Txn, bool, []chunkRef, error) {
		cur, err := loadChunkMap(v)
		if err != nil {
			return nil, false, nil, err
		}
		var old []chunkRef
		for _, entry := range cur.Entries {
			if g, ok := gens[entry.Start]; !ok || g != entry.Gen {
				return nil, true, nil, nil
			}
			if entry.ChunkID != "" && newByOffset[entry.Start] != entry.ChunkID {
				old = append(old, s.bindingOf(oid, entry))
			}
		}
		next := &ChunkMap{}
		for _, c := range chunks {
			next.Entries = append(next.Entries, Entry{
				Start: c.Offset, End: c.End(), ChunkID: newByOffset[c.Offset], Cached: keepCached,
			})
		}
		txn := store.NewTxn().SetXattr(XattrChunkMap, next.Marshal())
		if keepCached {
			txn.Write(0, data) // keep the full object cached
		} else {
			txn.Zero(0, size)
		}
		return txn, false, old, nil
	})
	return len(chunks), !bound && err == nil, err
}

// cdcWrite is the CDC-mode client write path: because existing entries may
// have arbitrary (content-defined) boundaries, a write first materializes
// every overlapped entry into the cached data region, then replaces the
// overlapped entries with one cached, dirty span — a reference transfer
// with no new chunks.
func (cl *Client) cdcWrite(p *sim.Proc, oid string, off int64, data []byte) error {
	s := cl.s
	proxyGW, _, err := s.metaPrimaryGW(oid, qos.Client)
	if err != nil {
		return err
	}
	// The span swallows every overlapped entry, so their chunks are
	// released after the map update (their data now lives in the metadata
	// object).
	_, err = s.newRebind(cl.gw, oid).bind(p, len(data), func(v rados.View) (*store.Txn, bool, []chunkRef, error) {
		cm, err := loadChunkMap(v)
		if err != nil {
			return nil, false, nil, err
		}
		end := off + int64(len(data))
		spanStart, spanEnd := off, end
		txn := store.NewTxn()
		var kept []Entry
		var replaced []chunkRef
		var maxGen uint32
		for _, entry := range cm.Entries {
			if entry.End <= off || entry.Start >= end {
				kept = append(kept, entry)
				continue
			}
			// Overlap: pull the entry's bytes into the object if needed,
			// then fold it into the new dirty span.
			if entry.Start < spanStart {
				spanStart = entry.Start
			}
			if entry.End > spanEnd {
				spanEnd = entry.End
			}
			if entry.Gen > maxGen {
				maxGen = entry.Gen
			}
			if !entry.Cached && entry.ChunkID != "" {
				chunkData, err := proxyGW.Read(p, s.chunk, entry.ChunkID, 0, entry.Len())
				if err != nil {
					return nil, false, nil, fmt.Errorf("core: cdc pre-read %s: %w", entry.ChunkID, err)
				}
				txn.Write(entry.Start, chunkData)
			}
			if entry.ChunkID != "" {
				replaced = append(replaced, s.bindingOf(oid, entry))
			}
		}
		txn.Write(off, data)
		next := &ChunkMap{Entries: kept}
		next.Upsert(Entry{Start: spanStart, End: spanEnd, Cached: true, Dirty: true, Gen: maxGen + 1})
		txn.SetXattr(XattrChunkMap, next.Marshal())
		return txn, false, replaced, nil
	})
	if err != nil {
		return err
	}
	return s.listDirty(p, cl.gw, oid)
}

// UseCDC reports whether the store runs in content-defined chunking mode.
func (s *Store) UseCDC() bool { return s.cfg.CDC != nil }
