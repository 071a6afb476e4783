package main

import (
	"fmt"
	"time"

	"spinddt/internal/apps"
	"spinddt/internal/core"
)

// wireMsgs is the number of receives, and of sends, each op flushes.
const wireMsgs = 8

// wire streams the capped app mix through a core.Session on the
// transport backend over an in-memory pipe: every type is committed once
// at set-up and each op reuses the handles in both directions.
type wire struct {
	in      *inputs
	apps    []apps.Instance
	idx     []int // w.apps[i] is apps.All()[idx[i]]
	deck    *deck
	sess    *core.Session
	ep      *core.Endpoint
	handles []*core.TypeHandle

	opCounts   []core.SessionStats // Session.Stats after set-up, then after each measured op
	blockStats *core.SessionStats  // counter deltas of the first whole block
}

func newWire(in *inputs) *wire {
	a, idx := cappedApps()
	return &wire{in: in, apps: a, idx: idx, deck: newDeck(len(a), in.rng)}
}

// setup builds the backend and session, then constructs and commits the
// mix; the traced run times each ddt commit on its own.
func (w *wire) setup(rec *recorder) error {
	backend, err := core.NewUDPBackend(core.UDPConfig{Network: "pipe"})
	if err != nil {
		return err
	}
	cfg := core.NewSessionConfig()
	cfg.Backend = backend
	w.sess = core.NewSession(cfg)
	w.ep = w.sess.Endpoint(core.EndpointConfig{})
	root := rec.startOp("wire.setup")
	defer rec.end(root)
	all := apps.All()
	w.handles = make([]*core.TypeHandle, len(w.apps))
	for i := range w.apps {
		inst := all[w.idx[i]]
		w.apps[i] = inst
		sp := rec.begin("ddt.commit", root)
		inst.Type.Commit()
		rec.end(sp)
		if w.handles[i], err = w.sess.Commit(inst.Type); err != nil {
			return fmt.Errorf("commit %s: %w", inst.Name(), err)
		}
	}
	// Warm-up: every instance posted and sent once, in figure order, so
	// each handle's build is done before timing starts.
	for k := 0; k*wireMsgs < len(w.apps); k++ {
		var idx [wireMsgs]int
		for j := range idx {
			idx[j] = (k*wireMsgs + j) % len(w.apps)
		}
		if _, err := w.exchange(nil, idx, idx); err != nil {
			return err
		}
	}
	w.opCounts = []core.SessionStats{w.sess.Stats()}
	return nil
}

func (w *wire) op(rec *recorder) (int64, error) {
	var recv, send [wireMsgs]int
	for j := range recv {
		recv[j] = w.deck.next()
	}
	for j := range send {
		send[j] = w.deck.next()
	}
	n, err := w.exchange(rec, recv, send)
	w.opCounts = append(w.opCounts, w.sess.Stats())
	return n, err
}

// exchange posts the recv instances and flushes, then sends the send
// instances and flushes the sends; every message is byte-verified.
func (w *wire) exchange(rec *recorder, recv, send [wireMsgs]int) (int64, error) {
	var futs [wireMsgs]*core.Future
	var sfuts [wireMsgs]*core.SendFuture
	var packed, srcs [wireMsgs][]byte
	for j, i := range recv {
		packed[j] = w.in.window(w.apps[i].MsgBytes())
	}
	for j, i := range send {
		_, hi := w.apps[i].Type.Footprint(w.apps[i].Count)
		srcs[j] = w.in.window(hi)
	}

	root := rec.startOp("wire.op")
	defer rec.end(root)
	var err error
	for j, i := range recv {
		sp := rec.begin("core.post", root)
		futs[j], err = w.ep.Post(w.handles[i], w.apps[i].Count, core.PostOpts{Packed: packed[j]})
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("post %s: %w", w.apps[i].Name(), err)
		}
	}
	sp := rec.begin("core.flush", root)
	err = w.ep.Flush()
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	var bytes int64
	for j, f := range futs {
		res, err := f.Wait()
		if err != nil || !res.Verified {
			return 0, fmt.Errorf("receive %s: verified %v, err %v", w.apps[recv[j]].Name(), res.Verified, err)
		}
		bytes += res.MsgBytes
	}

	for j, i := range send {
		sp := rec.begin("core.send", root)
		sfuts[j], err = w.ep.Send(w.handles[i], w.apps[i].Count, core.SendOpts{Src: srcs[j]})
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("send %s: %w", w.apps[i].Name(), err)
		}
	}
	sp = rec.begin("core.flush_sends", root)
	err = w.ep.FlushSends()
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("flush sends: %w", err)
	}
	for j, f := range sfuts {
		res, err := f.Wait()
		if err != nil || !res.Verified {
			return 0, fmt.Errorf("send %s: verified %v, err %v", w.apps[send[j]].Name(), res.Verified, err)
		}
		bytes += res.MsgBytes
	}
	return bytes, nil
}

// blockOps is the smallest number of ops whose draws are whole decks, so
// the counters of every such block are the same for every seed.
func (w *wire) blockOps() int {
	n := len(w.apps)
	for k := 1; ; k++ {
		if (k*2*wireMsgs)%n == 0 {
			return k
		}
	}
}

// check compares the plan counters of every whole block of
// measured ops and reports any difference as drift.
func (w *wire) check() error {
	b := w.blockOps()
	prev := w.opCounts[0]
	for k := 0; (k+1)*b < len(w.opCounts); k++ {
		cur := w.opCounts[(k+1)*b]
		d := core.SessionStats{FusedPackCRC: cur.FusedPackCRC - prev.FusedPackCRC, FusedUnpackCRC: cur.FusedUnpackCRC - prev.FusedUnpackCRC}
		prev = cur
		if w.blockStats == nil {
			w.blockStats = &d
			continue
		}
		if d != *w.blockStats {
			return fmt.Errorf("wire drift: block %d fused counters %+v, block 0 %+v", k, d, *w.blockStats)
		}
	}
	return nil
}

func (w *wire) ledger(rec *recorder, m metrics) {
	m.add("core.post_us", median(rec.perCall(time.Microsecond, "core.post")), "us")
	m.add("core.send_us", median(rec.perCall(time.Microsecond, "core.send")), "us")
	m.add("core.flush_ms", median(rec.perCall(time.Millisecond, "core.flush")), "ms")
	m.add("core.flush_sends_ms", median(rec.perCall(time.Millisecond, "core.flush_sends")), "ms")
	m.add("ddt.commit_ms", median(rec.perOp(time.Millisecond, "ddt.commit")), "ms")
	b := float64(w.blockOps())
	m.add("plan.fused_pack_crc", float64(w.blockStats.FusedPackCRC)/b, "count")
	m.add("plan.fused_unpack_crc", float64(w.blockStats.FusedUnpackCRC)/b, "count")
}

func (w *wire) minOps() int { return w.blockOps() }

func (w *wire) fingerprint() map[string]float64 {
	return map[string]float64{
		"plan.fused_pack_crc":   float64(w.blockStats.FusedPackCRC),
		"plan.fused_unpack_crc": float64(w.blockStats.FusedUnpackCRC),
	}
}

func (w *wire) simGbps() (float64, error) { return mixSimGbps() }

func (w *wire) close() {
	if w.sess != nil {
		w.sess.Close()
	}
}
