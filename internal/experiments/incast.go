package experiments

import (
	"fmt"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/hostcpu"
	"spinddt/internal/nic"
	"spinddt/internal/sim"
)

// This file renders the incast figure: N senders concurrently target ONE
// receiver over the sharded exchange, the classic datacenter pathology the
// paper's batched device model is built to expose. Every sender gathers
// its non-contiguous source with sender-side sPIN handlers on its own
// outbound device, the fabric paces each packet across domains, and all N
// messages contend for the single receiver's inbound device — parser,
// HPUs, DMA channels and NIC memory. The receive offloads are pooled
// instances of ONE built template (the instantiate-not-rebuild layer), so
// the figure's setup cost stays flat as the fan-in grows.

// incastStats aggregates one fan-in run.
type incastStats struct {
	sendMax, recvMax, lastDone sim.Time
	makespan                   sim.Time
	windows                    uint64
	verified                   int
}

// runIncast simulates senders -> 1 receiver, every message msgBytes of the
// committed type, all first bits on the wire at t=0.
func runIncast(typ *ddt.Type, senders int, msgBytes, hi int64) (incastStats, error) {
	txoff, err := core.BuildTxOffload(core.BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: core.DefaultCostModel(), Host: hostcpu.DefaultConfig(),
	})
	if err != nil {
		return incastStats{}, fmt.Errorf("incast gather: %w", err)
	}

	// One build, senders instances: every receive slot of the fan-in plugs
	// in its own pooled execution context minted from the same template.
	offs := make([]*core.Offload, senders)
	offs[0], err = core.BuildOffload(core.RWCP, core.BuildParams{
		Type: typ, Count: 1,
		NIC: nic.DefaultConfig(), Cost: core.DefaultCostModel(), Host: hostcpu.DefaultConfig(),
		Epsilon: 0.2,
	})
	if err != nil {
		return incastStats{}, fmt.Errorf("incast: %w", err)
	}
	for i := 1; i < senders; i++ {
		if offs[i], err = offs[0].Instantiate(); err != nil {
			return incastStats{}, fmt.Errorf("incast: %w", err)
		}
	}

	srcs := make([][]byte, senders)
	dsts := make([][]byte, senders)
	for i := range srcs {
		srcs[i] = getHaloBuf(hi)
		fillHaloSrc(int64(i+1), srcs[i])
		dsts[i] = getZeroedHaloBuf(hi)
	}
	defer func() {
		for i := range srcs {
			putHaloBuf(srcs[i])
			putHaloBuf(dsts[i])
		}
	}()

	// Endpoint 0 is the receiver (inbound batch of the whole fan-in, no
	// sends); endpoints 1..senders each inject one message into their slot.
	eps := make([]nic.ExchangeEndpoint, senders+1)
	recvs := make([]nic.BatchMessage, senders)
	for i := range recvs {
		recvs[i] = nic.BatchMessage{PT: offs[i].PT(), Bits: 1, Host: dsts[i]}
	}
	eps[0] = nic.ExchangeEndpoint{Cfg: nic.DefaultConfig(), Recvs: recvs}
	for s := 1; s <= senders; s++ {
		eps[s] = nic.ExchangeEndpoint{
			Cfg: nic.DefaultConfig(),
			Sends: []nic.ExchangeSend{{
				Msg: nic.TxMessage{Kind: nic.TxProcessPut, MsgBytes: msgBytes, Ctx: txoff.Ctx, Src: srcs[s-1]},
				Dst: 0, DstRecv: s - 1,
			}},
		}
	}

	res, err := nic.RunExchange(eps, width())
	if err != nil {
		return incastStats{}, fmt.Errorf("incast: %w", err)
	}

	st := incastStats{makespan: res.Makespan, windows: res.Windows}
	for s := 1; s <= senders; s++ {
		for _, sr := range res.Sends[s] {
			if sr.Injected > st.sendMax {
				st.sendMax = sr.Injected
			}
		}
	}
	for slot, rr := range res.Recvs[0] {
		if rr.ProcTime > st.recvMax {
			st.recvMax = rr.ProcTime
		}
		if res.Notified[0][slot] > st.lastDone {
			st.lastDone = res.Notified[0][slot]
		}
		if verifyHaloDst(typ, srcs[slot], dsts[slot], hi, msgBytes) {
			st.verified++
		}
	}
	for _, off := range offs {
		off.Release()
	}
	return st, nil
}

// Incast reports the fan-in sweep: the sender count doubles from 1 to
// maxSenders while every sender keeps one msgBytes message to the single
// receiver. The slowdown column is last_done relative to the 1-sender
// baseline — an ideal receiver would scale it linearly with the fan-in
// (the wire can only deliver one message at a time); the excess over N is
// the contention the batched inbound device charges on top.
func Incast(maxSenders int, msgBytes int64) (*Table, error) {
	if maxSenders < 2 {
		return nil, fmt.Errorf("incast needs at least 2 senders, have %d", maxSenders)
	}
	typ := fig8Vector(2048, msgBytes)
	typ.Commit()
	lo, hi := typ.Footprint(1)
	if lo < 0 {
		return nil, fmt.Errorf("incast datatype has negative lower bound %d", lo)
	}

	t := &Table{
		Title: fmt.Sprintf("Incast: fan-in doubling 1 -> %d senders onto one receiver, %s per message (2 KiB blocks), RWCP offload", maxSenders, haloSizeLabel(msgBytes)),
		Note: "every sender gathers on its own outbound device; all messages contend for ONE inbound device at the receiver\n" +
			"(parser, HPUs, DMA, NIC memory); receive contexts are pooled instances of one built template;\n" +
			"slowdown_x = last_done / 1-sender last_done; every buffer byte-verified against the reference unpack",
		Header: []string{"senders", "msgs", "send_max_us", "recv_max_us", "last_done_us", "makespan_us", "windows", "slowdown_x", "verified"},
	}

	var base sim.Time
	for senders := 1; senders <= maxSenders; senders *= 2 {
		st, err := runIncast(typ, senders, msgBytes, hi)
		if err != nil {
			return nil, err
		}
		if senders == 1 {
			base = st.lastDone
		}
		slowdown := 0.0
		if base > 0 {
			slowdown = float64(st.lastDone) / float64(base)
		}
		t.AddRow(d64(int64(senders)), d64(int64(senders)),
			usec(st.sendMax.Microseconds()),
			usec(st.recvMax.Microseconds()),
			usec(st.lastDone.Microseconds()),
			usec(st.makespan.Microseconds()),
			d64(int64(st.windows)),
			fmt.Sprintf("%.2f", slowdown),
			fmt.Sprintf("%d/%d", st.verified, senders))
	}
	return t, nil
}
