package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// Crash-point enumeration over the reference-transfer protocol. Each case
// drives one caller of rebind from fresh state. A dry run counts the fault
// points the operation reaches; then, for every step k, the case reruns
// from scratch with a crash at step k — alone, together with a client write
// racing at that step, and as a race without a crash. After each run the
// reconcilers must leave a spotless store whose content equals a reference
// model of the acknowledged writes.

// contentModel is the reference model: the logical bytes of every object.
type contentModel map[string][]byte

func (m contentModel) write(oid string, off int64, data []byte) {
	cur := m[oid]
	if end := off + int64(len(data)); int64(len(cur)) < end {
		cur = append(cur, make([]byte, end-int64(len(cur)))...)
	}
	copy(cur[off:], data)
	m[oid] = cur
}

// modelEnv is an env whose client writes also land in the model.
type modelEnv struct {
	*env
	m contentModel
}

func (me *modelEnv) write(p *sim.Proc, cl *Client, oid string, off int64, data []byte) error {
	err := cl.Write(p, oid, off, data)
	if err == nil {
		me.m.write(oid, off, data)
	}
	return err
}

// protocolCase is one caller of the protocol: a store configuration, a
// setup reaching the state just before the operation, and the operation.
type protocolCase struct {
	name  string
	env   func(t *testing.T) *env
	setup func(t *testing.T, p *sim.Proc, me *modelEnv)
	op    func(t *testing.T, p *sim.Proc, me *modelEnv, crashedAt *rebindStep)
}

// randData returns n seeded pseudo-random bytes.
func randData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func drainOp(_ *testing.T, p *sim.Proc, me *modelEnv, _ *rebindStep) {
	me.s.Engine().DrainAndWait(p)
}

func tierPassOp(t *testing.T, p *sim.Proc, me *modelEnv, _ *rebindStep) {
	if _, err := me.s.TierPass(p); err != nil {
		t.Errorf("tier pass: %v", err)
	}
}

func protocolCases() []protocolCase {
	x, y, z, w := mkData(0x58, 4096), mkData(0x59, 4096), mkData(0x5A, 4096), mkData(0x57, 4096)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []protocolCase{{
		// Engine.flushChunk: fresh puts, an idempotent re-put of a shared
		// chunk, and a rebind that releases the slot's old chunk.
		name: "flush",
		env:  func(t *testing.T) *env { return newDedupEnv(t, nil) },
		setup: func(t *testing.T, p *sim.Proc, me *modelEnv) {
			for oid, data := range map[string][]byte{"a": cat(x, y), "b": cat(x, z)} {
				if err := me.write(p, me.cl, oid, 0, data); err != nil {
					t.Error(err)
				}
			}
			me.s.Engine().DrainAndWait(p)
			for _, wr := range []struct {
				oid  string
				data []byte
			}{{"a", w}, {"c", cat(y, x)}} {
				if err := me.write(p, me.cl, wr.oid, 0, wr.data); err != nil {
					t.Error(err)
				}
			}
		},
		op: drainOp,
	}, {
		// Store.migrateChunk: two warm chunks demote into the EC pool.
		name: "migrate",
		env:  func(t *testing.T) *env { return newTierEnv(t, nil) },
		setup: func(t *testing.T, p *sim.Proc, me *modelEnv) {
			if err := me.write(p, me.cl, "obj", 0, cat(x, y)); err != nil {
				t.Error(err)
			}
			me.s.Engine().DrainAndWait(p)
			coolDown(p)
		},
		op: tierPassOp,
	}, {
		// Store.recacheObject: a hot object's bindings swap out in one
		// transaction (no puts), then each old chunk is released.
		name: "recache",
		env:  func(t *testing.T) *env { return newTierEnv(t, nil) },
		setup: func(t *testing.T, p *sim.Proc, me *modelEnv) {
			if err := me.write(p, me.cl, "obj", 0, cat(x, y, z)); err != nil {
				t.Error(err)
			}
			me.s.Engine().DrainAndWait(p)
			heat(p, me.env, "obj")
		},
		op: tierPassOp,
	}, {
		// Engine.flushObjectCDC: re-chunking a patched object puts every new
		// chunk, swaps the whole map and releases the replaced chunks.
		name: "cdc-flush",
		env:  func(t *testing.T) *env { return newCDCEnv(t, nil) },
		setup: func(t *testing.T, p *sim.Proc, me *modelEnv) {
			base := randData(21, 20000)
			if err := me.write(p, me.cl, "a", 0, base); err != nil {
				t.Error(err)
			}
			if err := me.write(p, me.cl, "b", 0, cat([]byte("shift"), base)); err != nil {
				t.Error(err)
			}
			me.s.Engine().DrainAndWait(p)
			if err := me.write(p, me.cl, "a", 9000, randData(22, 3000)); err != nil {
				t.Error(err)
			}
		},
		op: drainOp,
	}, {
		// Client.cdcWrite: a write over flushed CDC chunks folds them into
		// one dirty span (no puts) and releases them.
		name: "cdc-write",
		env:  func(t *testing.T) *env { return newCDCEnv(t, nil) },
		setup: func(t *testing.T, p *sim.Proc, me *modelEnv) {
			if err := me.write(p, me.cl, "obj", 0, randData(23, 20000)); err != nil {
				t.Error(err)
			}
			me.s.Engine().DrainAndWait(p)
		},
		op: func(t *testing.T, p *sim.Proc, me *modelEnv, crashedAt *rebindStep) {
			patch := randData(24, 6000)
			err := me.cl.Write(p, "obj", 5000, patch)
			switch {
			case err == nil:
				me.m.write("obj", 5000, patch)
			case err != errCrash:
				t.Errorf("write: %v", err)
			case crashedAt.Kind == stepRelease:
				// The crash came after the map update: the bytes landed.
				me.m.write("obj", 5000, patch)
			}
		},
	}}
}

// faultMode selects what happens at the enumerated step.
type faultMode int

const (
	crashOnly faultMode = iota
	crashAndRace
	raceOnly
)

func (m faultMode) String() string {
	return [...]string{"crash", "crash+race", "race"}[m]
}

// runProtocolCase runs c from fresh state with the fault at step k (k < 0:
// no fault) and checks the reconciled result. It returns the number of
// fault points the run reached.
func runProtocolCase(t *testing.T, c protocolCase, k int, mode faultMode) int {
	t.Helper()
	me := &modelEnv{env: c.env(t), m: contentModel{}}
	label := fmt.Sprintf("%s step %d (%s)", c.name, k, mode)
	me.run(t, func(p *sim.Proc) { c.setup(t, p, me) })

	steps := 0
	racing := false
	crashed := false
	var crashedAt rebindStep
	racer := me.s.Client("racer")
	me.s.fault = func(q *sim.Proc, oid string, st rebindStep) bool {
		if racing {
			return false // the racing write's own transfer runs fault-free
		}
		n := steps
		steps++
		if n != k {
			return false
		}
		if mode != crashOnly {
			racing = true
			data := mkData(byte(0x80+k), 4096)
			done := q.Go("racer", func(r *sim.Proc) {
				if err := me.write(r, racer, oid, 0, data); err != nil {
					t.Errorf("%s: racing write: %v", label, err)
				}
			})
			sim.WaitAll(q, done)
			racing = false
		}
		if mode == raceOnly {
			return false
		}
		crashed, crashedAt = true, st
		return true
	}
	me.run(t, func(p *sim.Proc) { c.op(t, p, me, &crashedAt) })
	if k >= 0 && mode != raceOnly && !crashed {
		t.Errorf("%s: fault point never reached", label)
	}
	me.s.fault = nil

	// Let the engine finish what the crash left dirty, then run the
	// reconcilers once the leases have expired.
	me.run(t, func(p *sim.Proc) {
		me.s.Engine().DrainAndWait(p)
		p.Sleep(me.s.cfg.IntentLease + time.Second)
		if st, err := me.s.Audit(p); err != nil || st.LostChunks != 0 {
			t.Errorf("%s: audit: err=%v %+v", label, err, st)
		}
		if st, err := me.s.Audit(p); err != nil || !st.Clean() {
			t.Errorf("%s: second audit not clean: err=%v %+v", label, err, st)
		}
		if rep, err := me.s.Scrub(p); err != nil || !rep.Clean() {
			t.Errorf("%s: scrub: err=%v issues=%v", label, err, rep.Issues)
		}
		for pass := 1; pass <= 2; pass++ {
			st, err := me.s.GC(p)
			if err != nil || st.CountsFixed != 0 || st.BadRefKeys != 0 || (pass == 2 && st.StaleRefs != 0) {
				t.Errorf("%s: GC pass %d: err=%v %+v", label, pass, err, st)
			}
		}
		for oid, want := range me.m {
			if got, err := me.cl.Read(p, oid, 0, -1); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s differs from the model (err=%v)", label, oid, err)
			}
		}
	})
	me.checkIntegrity(t)
	return steps
}

func TestRebindCrashPointsEnumerated(t *testing.T) {
	for _, c := range protocolCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			n := runProtocolCase(t, c, -1, crashOnly)
			if n == 0 {
				t.Fatal("operation reached no protocol step")
			}
			t.Logf("%d protocol steps", n)
			for k := 0; k < n; k++ {
				for _, mode := range []faultMode{crashOnly, crashAndRace, raceOnly} {
					runProtocolCase(t, c, k, mode)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
