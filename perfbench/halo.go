package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/experiments"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// The halo ring: 32 ranks exchanging 64 KiB messages of 2 KiB blocks
// with both neighbors. At this size the exchange is bound by the event
// engine and the device model; at 1 MiB per message an 8-rank ring is
// DRAM-bandwidth bound and its latency swings with the neighbors' memory
// traffic.
const (
	haloRanks      = 32
	haloMsgBytes   = 64 << 10
	haloBlockBytes = 2048
	haloDirs       = 2
	haloMsgs       = haloRanks * haloDirs
	haloWarmup     = 2
)

// haloRow is one strategy row of the figure (every column is
// deterministic), its cells joined by spaces.
type haloRow string

// haloMakespanCol is the makespan_us column of the figure.
const haloMakespanCol = 6

// halo runs experiments.HaloExchange untraced, and the same ring through
// the layer calls (core builds and instances, nic.RunExchange, the
// verification) when traced.
type halo struct {
	want []haloRow // the figure's rows, pinned at set-up

	// Buffers of the traced ring: per (rank, direction) a seeded source
	// and a zeroed destination footprint.
	hi         int64
	srcs, dsts [][]byte

	counts map[string]float64 // per-op device counters of the traced ring
}

func newHalo(in *inputs) *halo {
	typ := haloType()
	_, hi := typ.Footprint(1)
	h := &halo{hi: hi, srcs: make([][]byte, haloMsgs), dsts: make([][]byte, haloMsgs)}
	for i := range h.srcs {
		h.srcs[i] = in.window(hi)
		h.dsts[i] = make([]byte, hi)
	}
	return h
}

// haloType is the figure's vector: 2 KiB blocks at a 4 KiB stride.
func haloType() *ddt.Type {
	blockInts := haloBlockBytes / 4
	return ddt.MustVector(haloMsgBytes/haloBlockBytes, blockInts, 2*blockInts, ddt.Int)
}

func (h *halo) setup(*recorder) error {
	for i := 0; i < haloWarmup; i++ {
		if _, err := h.op(nil); err != nil {
			return err
		}
	}
	return nil
}

// payload is the verified payload of one op: every strategy moves every
// message of the ring.
func (h *halo) payload() int64 {
	return int64(len(core.OffloadStrategies)) * haloMsgs * haloMsgBytes
}

func (h *halo) op(rec *recorder) (int64, error) {
	if rec != nil {
		return h.tracedOp(rec)
	}
	t, err := experiments.HaloExchange(haloRanks, haloMsgBytes)
	if err != nil {
		return 0, err
	}
	rows, err := haloRows(t)
	if err != nil {
		return 0, err
	}
	if h.want == nil {
		h.want = rows
	} else if err := sameRows(h.want, rows); err != nil {
		return 0, err
	}
	return h.payload(), nil
}

// haloRows checks the figure's shape and that every buffer verified.
func haloRows(t *experiments.Table) ([]haloRow, error) {
	if len(t.Rows) != len(core.OffloadStrategies) || t.Header[haloMakespanCol] != "makespan_us" {
		return nil, fmt.Errorf("halo: unexpected figure layout %v with %d rows", t.Header, len(t.Rows))
	}
	var rows []haloRow
	for _, r := range t.Rows {
		if want := fmt.Sprintf("%d/%d", haloMsgs, haloMsgs); r[len(r)-1] != want {
			return nil, fmt.Errorf("halo %s: verified %s, want %s", r[0], r[len(r)-1], want)
		}
		rows = append(rows, haloRow(strings.Join(r, " ")))
	}
	return rows, nil
}

func sameRows(want, got []haloRow) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("halo drift: %q, pinned %q", got[i], want[i])
		}
	}
	return nil
}

// makespans returns the makespan_us column of the pinned rows.
func (h *halo) makespans() ([]float64, error) {
	var out []float64
	for _, r := range h.want {
		v, err := strconv.ParseFloat(strings.Fields(string(r))[haloMakespanCol], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// simGbps is payload bits per simulated second of the summed makespans.
func (h *halo) simGbps() (float64, error) {
	ms, err := h.makespans()
	if err != nil {
		return 0, err
	}
	var us float64
	for _, v := range ms {
		us += v
	}
	return float64(h.payload()) * 8 / (us * 1e-6) / 1e9, nil
}

// tracedOp drives the figure's ring through the layer calls, one span per
// call, and checks every strategy row against the figure tick for tick.
func (h *halo) tracedOp(rec *recorder) (int64, error) {
	root := rec.startOp("halo.op")
	defer rec.end(root)

	// Like the figure, every op commits a fresh type, so the offload
	// builds are cold.
	typ := haloType()
	s := rec.begin("ddt.commit", root)
	typ.Commit()
	rec.end(s)

	counts := map[string]float64{}
	for i, strategy := range core.OffloadStrategies {
		row, err := h.tracedStrategy(rec, root, typ, strategy, counts)
		if err != nil {
			return 0, err
		}
		if h.want != nil && row != h.want[i] {
			return 0, fmt.Errorf("traced halo ring %q differs from the figure's %q", row, h.want[i])
		}
	}
	if h.counts == nil {
		h.counts = counts
	} else {
		for k, v := range counts {
			if h.counts[k] != v {
				return 0, fmt.Errorf("halo drift: %s = %v, first op %v", k, v, h.counts[k])
			}
		}
	}
	return h.payload(), nil
}

func (h *halo) tracedStrategy(rec *recorder, root int32, typ *ddt.Type, strategy core.Strategy, counts map[string]float64) (haloRow, error) {
	params := core.BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: core.DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	}
	s := rec.begin("core.build", root)
	txoff, err := core.BuildTxOffload(params)
	if err != nil {
		rec.end(s)
		return "", err
	}
	params.Epsilon = 0.2
	offs := make([]*core.Offload, haloMsgs)
	offs[0], err = core.BuildOffload(strategy, params)
	rec.end(s)
	if err != nil {
		return "", err
	}

	s = rec.begin("core.instantiate", root)
	for i := 1; i < len(offs) && err == nil; i++ {
		offs[i], err = offs[0].Instantiate()
	}
	rec.end(s)
	if err != nil {
		return "", err
	}

	eps := make([]nic.ExchangeEndpoint, haloRanks)
	for r := range eps {
		left, right := (r+haloRanks-1)%haloRanks, (r+1)%haloRanks
		recvs := make([]nic.BatchMessage, haloDirs)
		for slot := range recvs {
			recvs[slot] = nic.BatchMessage{PT: offs[r*haloDirs+slot].PT(), Bits: 1, Host: h.dsts[r*haloDirs+slot]}
		}
		eps[r] = nic.ExchangeEndpoint{
			Cfg:   nic.DefaultConfig(),
			Recvs: recvs,
			Sends: []nic.ExchangeSend{
				{Msg: nic.TxMessage{Kind: nic.TxProcessPut, MsgBytes: haloMsgBytes, Ctx: txoff.Ctx, Src: h.srcs[r*haloDirs]}, Dst: left, DstRecv: 0},
				{Msg: nic.TxMessage{Kind: nic.TxProcessPut, MsgBytes: haloMsgBytes, Ctx: txoff.Ctx, Src: h.srcs[r*haloDirs+1]}, Dst: right, DstRecv: 1},
			},
		}
	}
	s = rec.begin("nic.exchange", root)
	res, err := nic.RunExchange(eps, 1)
	rec.end(s)
	if err != nil {
		return "", err
	}

	s = rec.begin("plan.verify", root)
	verified := 0
	for r := 0; r < haloRanks; r++ {
		for slot := 0; slot < haloDirs; slot++ {
			from := ((r+1)%haloRanks)*haloDirs + 0
			if slot == 1 {
				from = ((r+haloRanks-1)%haloRanks)*haloDirs + 1
			}
			if verifyDst(typ, h.srcs[from], h.dsts[r*haloDirs+slot], h.hi) {
				verified++
			}
		}
	}
	rec.end(s)

	s = rec.begin("core.release", root)
	for _, off := range offs {
		off.Release()
	}
	rec.end(s)

	// The figure's columns, computed the way HaloExchange computes them.
	var sendMax, hpuMax, recvMax, lastDone sim.Time
	var handlers, dma, pktbuf float64
	for r := range res.Recvs {
		var hpu sim.Time
		for _, sr := range res.Sends[r] {
			sendMax = max(sendMax, sr.Injected)
			hpu += sr.HPUBusy
			handlers += float64(sr.HandlerRuns)
		}
		hpuMax = max(hpuMax, hpu)
		for slot, rr := range res.Recvs[r] {
			recvMax = max(recvMax, rr.ProcTime)
			lastDone = max(lastDone, res.Notified[r][slot])
			handlers += float64(rr.HandlerRuns)
			dma += float64(rr.DMA.Writes)
			pktbuf = max(pktbuf, float64(rr.PktBufPeak))
		}
	}
	counts["nic.handler_runs"] += handlers
	counts["nic.dma_writes"] += dma
	counts["nic.pktbuf_peak"] = max(counts["nic.pktbuf_peak"], pktbuf)
	counts["nic.windows"] += float64(res.Windows)
	counts["nic.makespan_us"] += res.Makespan.Microseconds()

	us := func(t sim.Time) string { return fmt.Sprintf("%.2f", t.Microseconds()) }
	return haloRow(strings.Join([]string{
		strategy.String(), strconv.Itoa(haloMsgs),
		us(sendMax), us(hpuMax), us(recvMax), us(lastDone), us(res.Makespan),
		strconv.FormatUint(res.Windows, 10), fmt.Sprintf("%d/%d", verified, haloMsgs),
	}, " ")), nil
}

// verifyDst checks one received footprint against its sender's source:
// sender and receiver commit the same type, so every typemap region of
// the destination must equal the source's and every gap must stay zero.
func verifyDst(typ *ddt.Type, src, dst []byte, hi int64) bool {
	ok := true
	var cursor int64
	typ.ForEachBlock(1, func(off, size int64) {
		if !ok {
			return
		}
		if off < cursor || !allZero(dst[cursor:off]) || !bytes.Equal(dst[off:off+size], src[off:off+size]) {
			ok = false
			return
		}
		cursor = off + size
	})
	return ok && allZero(dst[cursor:hi])
}

// zeros backs allZero's vectorized compares.
var zeros [64 << 10]byte

func allZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
}

// haloLedger is the traced ring's per-layer metrics.
func (h *halo) ledger(rec *recorder, m metrics) {
	m.add("nic.exchange_ms", median(rec.perOp(time.Millisecond, "nic.exchange")), "ms")
	m.add("core.instantiate_us", median(rec.perOp(time.Microsecond, "core.instantiate", "core.release")), "us")
	m.add("core.build_ms", median(rec.perOp(time.Millisecond, "core.build")), "ms")
	m.add("plan.verify_ms", median(rec.perOp(time.Millisecond, "plan.verify")), "ms")
	m.add("ddt.commit_ms", median(rec.perOp(time.Millisecond, "ddt.commit")), "ms")
	for _, k := range []string{"nic.handler_runs", "nic.windows", "nic.dma_writes", "nic.pktbuf_peak"} {
		m.add(k, h.counts[k], "count")
	}
	m.add("nic.makespan_us", h.counts["nic.makespan_us"], "us")
}

func (h *halo) minOps() int { return 1 }

// check has nothing left to do: every op is compared with the pinned
// rows (and, traced, with the first op's counters) as it runs.
func (h *halo) check() error { return nil }

func (h *halo) fingerprint() map[string]float64 {
	fp := map[string]float64{}
	ms, _ := h.makespans() // parsed once already by simGbps
	for i, s := range core.OffloadStrategies {
		fp[s.String()+".makespan_us"] = ms[i]
	}
	return fp
}

func (h *halo) close() {}
