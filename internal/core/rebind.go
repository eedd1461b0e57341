package core

import (
	"errors"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// The reference-transfer protocol (§4.6). Every change to which chunks a
// metadata object's chunk map binds — a flush, a CDC re-chunk, a move
// between chunk pools, a recache, a CDC client write — runs it once:
//
//	intent i   record a reference intent on each new chunk (creating it
//	           if absent) with a lease; nothing is counted yet
//	bind       one generation-guarded transaction on the metadata object
//	           swaps the bindings, unless a client write raced
//	commit i   turn each intent into a counted reference
//	release i  de-reference each binding the swap replaced
//
// A chunk is therefore referenced before the map binds it and
// de-referenced only after the binding is gone. A crash before bind leaves
// intents the lease expires and GC/audit abort; a crash after bind leaves
// intents the audit promotes and stale references GC sweeps. A failed put,
// a failed bind and a raced bind abort the intents already taken inline.

// chunkRef names one reference: the chunk object it lives on and its key.
type chunkRef struct {
	pool *rados.Pool
	id   string
	ref  Ref
}

// bindFn runs under the metadata object's PG lock. It returns the
// transaction to apply, whether a racing write invalidated the transfer,
// and the bindings the transaction replaces (released after the commits).
type bindFn func(v rados.View) (txn *store.Txn, raced bool, old []chunkRef, err error)

// stepKind enumerates the protocol steps a fault can interrupt.
type stepKind int

const (
	stepIntent stepKind = iota
	stepBind
	stepCommit
	stepRelease
)

// rebindStep names one fault point: the step about to run and, for the
// per-chunk steps, its index within the transfer.
type rebindStep struct {
	Kind stepKind
	I    int
}

// errCrash simulates a failure injected by Store.fault.
var errCrash = errors.New("core: injected crash")

// rebind is one run of the protocol on one metadata object. Take intents
// with put, then finish with bind; a transfer with no new chunks calls
// bind directly.
type rebind struct {
	s       *Store
	gw      *rados.Gateway
	oid     string
	intents []takenIntent
}

// takenIntent is a put that landed. committed marks a reference that was
// already committed (an idempotent re-put): no intent exists for it, so it
// is neither committed nor aborted.
type takenIntent struct {
	chunkRef
	committed bool
}

func (s *Store) newRebind(gw *rados.Gateway, oid string) *rebind {
	return &rebind{s: s, gw: gw, oid: oid}
}

// crashed consults the store's fault point before a step runs.
func (rb *rebind) crashed(p *sim.Proc, kind stepKind, i int) bool {
	return rb.s.fault != nil && rb.s.fault(p, rb.oid, rebindStep{Kind: kind, I: i})
}

// put takes an intent on dst, writing data if the chunk is absent. A failed
// put aborts the intents already taken.
func (rb *rebind) put(p *sim.Proc, dst chunkRef, data []byte) error {
	if rb.crashed(p, stepIntent, len(rb.intents)) {
		return errCrash
	}
	in := takenIntent{chunkRef: dst}
	expiry := p.Now() + sim.Time(rb.s.cfg.IntentLease)
	if err := rb.gw.MutateWithPayload(p, dst.pool, dst.id, len(data), putIntentFn(data, dst.ref, expiry, &in.committed)); err != nil {
		_ = rb.abort(p)
		return err
	}
	rb.intents = append(rb.intents, in)
	return nil
}

// bind applies fn to the metadata object with payload bytes of request
// data. If the bind fails or races, the intents are aborted and bound is
// false (a race returns a nil error). Once the bind lands, bound is true:
// each intent is committed, retrying through unavailability, and each
// replaced binding is released. An error with bound set came after the
// new bindings became authoritative.
func (rb *rebind) bind(p *sim.Proc, payload int, fn bindFn) (bound bool, err error) {
	s := rb.s
	if rb.crashed(p, stepBind, 0) {
		return false, errCrash
	}
	var raced bool
	var old []chunkRef
	err = rb.gw.MutateWithPayload(p, s.meta, rb.oid, payload, func(v rados.View) (*store.Txn, error) {
		txn, r, o, err := fn(v)
		raced, old = r, o
		return txn, err
	})
	if err != nil || raced {
		if aerr := rb.abort(p); err == nil {
			err = aerr
		}
		return false, err
	}
	for i, in := range rb.intents {
		if in.committed {
			continue
		}
		if rb.crashed(p, stepCommit, i) {
			return true, errCrash
		}
		// On persistent failure the binding exists, so GC/audit promote the
		// expired intent: the protocol converges either way.
		if err := retryUnavailable(p, func() error {
			return rb.gw.Mutate(p, in.pool, in.id, commitIntentFn(in.ref))
		}); err != nil && !errors.Is(err, ErrNotFound) {
			return true, err
		}
	}
	for i, b := range old {
		if rb.crashed(p, stepRelease, i) {
			return true, errCrash
		}
		if err := s.release(p, rb.gw, b); err != nil {
			return true, err
		}
	}
	return true, nil
}

// abort rolls back the intents taken so far. Best-effort: an abort lost to
// a crash is reconciled when the lease expires. Returns the first failure.
func (rb *rebind) abort(p *sim.Proc) error {
	var first error
	for _, in := range rb.intents {
		if in.committed {
			continue
		}
		err := rb.gw.Mutate(p, in.pool, in.id, abortIntentFn(in.ref, !rb.s.cfg.FalsePositiveRefs))
		if err != nil && !errors.Is(err, ErrNotFound) && first == nil {
			first = err
		}
	}
	return first
}

// release drops one committed reference: strictly (deleting a chunk left
// with no references) or, with false-positive refcounts (§4.6), lock-free,
// leaving reclamation to GC. A chunk already gone is not an error.
func (s *Store) release(p *sim.Proc, gw *rados.Gateway, b chunkRef) error {
	fn := decRefFn(b.ref)
	if s.cfg.FalsePositiveRefs {
		fn = dropRefFn(b.ref)
	}
	if err := gw.Mutate(p, b.pool, b.id, fn); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	return nil
}

// slotRef returns the reference key of oid's chunk slot starting at off.
func (s *Store) slotRef(oid string, off int64) Ref {
	return Ref{Pool: s.meta.ID, OID: oid, Offset: off}
}

// bindingOf returns the chunk reference an entry of oid's map holds.
func (s *Store) bindingOf(oid string, e Entry) chunkRef {
	return chunkRef{pool: s.chunkPoolFor(e.Cold), id: e.ChunkID, ref: s.slotRef(oid, e.Start)}
}
