package main

import (
	"fmt"
	"net"
	"time"

	"spinddt/internal/apps"
	"spinddt/internal/ddt"
	"spinddt/internal/server"
	"spinddt/internal/server/client"
	"spinddt/internal/transport"
)

// servedPosts is the number of caller-packed receives each session posts.
const servedPosts = 4

// rttTimeout bounds one client round trip; a lossless pipe answers in
// milliseconds, so hitting it means the daemon is stuck.
const rttTimeout = 20 * time.Second

// served is the spinsimd session cycle: one client endpoint on an
// in-memory pipe, one session per op (open, commit, posts, flush, close)
// against a daemon on the default MemBackend.
type served struct {
	in    *inputs
	apps  []apps.Instance
	deck  *deck
	srv   *server.Server
	ep    *transport.Endpoint
	addr  net.Addr
	nextS uint32

	opCounts   []map[string]int64 // per-op counter deltas, in op order
	deckCounts map[string]int64   // totals of the first whole deck
}

func newServed(in *inputs) *served {
	a, _ := cappedApps()
	return &served{in: in, apps: a, deck: newDeck(len(a), in.rng)}
}

func (s *served) setup(*recorder) error {
	srvConn, cliConn := transport.Pipe()
	s.srv = server.New(srvConn, server.Config{})
	s.addr = srvConn.LocalAddr()
	s.ep = transport.NewEndpoint(cliConn, s.addr, 0, transport.Config{})
	// Warm-up: one session per instance, in figure order, so every type
	// has been committed and built once before timing starts.
	for i := range s.apps {
		if _, err := s.session(nil, i); err != nil {
			return err
		}
	}
	s.opCounts = nil
	return nil
}

func (s *served) op(rec *recorder) (int64, error) {
	return s.session(rec, s.deck.next())
}

// session runs one full session cycle on instance i.
func (s *served) session(rec *recorder, i int) (int64, error) {
	inst := s.apps[i]
	packed := make([][]byte, servedPosts)
	for k := range packed {
		packed[k] = s.in.window(inst.MsgBytes())
	}
	srv0, tr0 := s.srv.Stats(), s.ep.Stats()

	root := rec.startOp("served.op")
	defer rec.end(root)
	s.nextS++
	c := client.NewOnEndpoint(s.ep, s.addr, s.nextS, rttTimeout)
	sp := rec.begin("server.open", root)
	err := c.Open()
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	if rec != nil {
		// The client encodes the type inside CommitAuto; the traced run
		// times the same encoder on its own.
		sp = rec.begin("ddt.encode", root)
		_ = ddt.Encode(inst.Type)
		rec.end(sp)
	}
	sp = rec.begin("server.commit", root)
	h, err := c.CommitAuto(inst.Type)
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("commit %s: %w", inst.Name(), err)
	}
	for _, p := range packed {
		sp = rec.begin("server.post", root)
		_, err = c.PostPacked(h, inst.Count, p)
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("post %s: %w", inst.Name(), err)
		}
	}
	sp = rec.begin("server.flush", root)
	recs, err := c.Flush()
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("flush %s: %w", inst.Name(), err)
	}
	var bytes int64
	for _, r := range recs {
		if r.Status != server.StatusOK || !r.Verified || int64(r.Bytes) != inst.MsgBytes() {
			return 0, fmt.Errorf("flush %s: record %+v not verified", inst.Name(), r)
		}
		bytes += int64(r.Bytes)
	}
	if len(recs) != servedPosts {
		return 0, fmt.Errorf("flush %s: %d records, want %d", inst.Name(), len(recs), servedPosts)
	}
	sp = rec.begin("server.close", root)
	err = c.CloseSession()
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}

	srv1, tr1 := s.srv.Stats(), s.ep.Stats()
	s.opCounts = append(s.opCounts, map[string]int64{
		"server.requests":   srv1.Requests - srv0.Requests,
		"server.rejections": srv1.Rejections - srv0.Rejections,
		// Frames are counted once; a retransmission timeout that fires
		// on a slow scheduler shows in retransmits, not in data_frames.
		"transport.data_frames": (tr1.DataSent - tr1.Retransmits) - (tr0.DataSent - tr0.Retransmits),
		"transport.acks":        (tr1.AcksSent + tr1.AcksReceived) - (tr0.AcksSent + tr0.AcksReceived),
		"transport.retransmits": tr1.Retransmits - tr0.Retransmits,
	})
	return bytes, nil
}

// check compares the counters of every whole deck of measured ops:
// a deck carries each instance once, so its totals do not depend on the
// seed, and any difference between decks is drift.
func (s *served) check() error {
	n := len(s.apps)
	for d := 0; (d+1)*n <= len(s.opCounts); d++ {
		tot := map[string]int64{}
		for _, c := range s.opCounts[d*n : (d+1)*n] {
			for k, v := range c {
				tot[k] += v
			}
		}
		if s.deckCounts == nil {
			s.deckCounts = tot
			continue
		}
		for _, k := range []string{"server.requests", "transport.data_frames"} {
			if tot[k] != s.deckCounts[k] {
				return fmt.Errorf("served drift: deck %d has %s = %d, deck 0 has %d", d, k, tot[k], s.deckCounts[k])
			}
		}
	}
	return nil
}

func (s *served) ledger(rec *recorder, m metrics) {
	for _, k := range []string{"open", "commit", "post", "flush", "close"} {
		m.add("server.rtt_"+k+"_ms", median(rec.perCall(time.Millisecond, "server."+k)), "ms")
	}
	m.add("ddt.encode_us", median(rec.perCall(time.Microsecond, "ddt.encode")), "us")
	n := float64(len(s.apps))
	for _, k := range []string{"server.requests", "server.rejections", "transport.data_frames"} {
		m.add(k, float64(s.deckCounts[k])/n, "count")
	}
	// Acks and retransmissions depend on timing: average every op.
	for _, k := range []string{"transport.acks", "transport.retransmits"} {
		var tot int64
		for _, c := range s.opCounts {
			tot += c[k]
		}
		m.add(k, float64(tot)/float64(len(s.opCounts)), "count")
	}
}

func (s *served) minOps() int { return len(s.apps) }

func (s *served) fingerprint() map[string]float64 {
	return map[string]float64{
		"server.requests":       float64(s.deckCounts["server.requests"]),
		"transport.data_frames": float64(s.deckCounts["transport.data_frames"]),
	}
}

func (s *served) simGbps() (float64, error) { return mixSimGbps() }

func (s *served) close() {
	if s.ep != nil {
		s.ep.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
