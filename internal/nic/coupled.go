package nic

import (
	"errors"
	"fmt"

	"spinddt/internal/fabric"
	"spinddt/internal/sim"
)

// This file couples the two halves of the symmetric device model: a
// transfer's sender-side txDevice and receiver-side rxDevice run in ONE
// discrete-event simulation, joined by the fabric — each packet's
// injection completion becomes, one wire latency later, its arrival at the
// receiving NIC. Nothing is summed from closed-form parts: sender
// backpressure (slow gather handlers, a contended injection link) delays
// receiver arrivals tick for tick, and receiver-side contention is visible
// in the same makespan.

// CoupledMessage is one end-to-end transfer of a coupled batch: the
// sender-side message and the receiver-side message it paces. Rx.Arrivals
// must be nil (the fabric derives the schedule from Tx's injections) and
// Rx.Start/Rx.Order are ignored; Rx.Packed must alias the wire stream the
// sender produces (Tx.Packed for a gathered send, the pre-packed buffer
// otherwise).
type CoupledMessage struct {
	Tx TxMessage
	Rx BatchMessage
}

// kindRxArrivalAt delivers a fabric-coupled packet: b carries the arrival
// time, stamped into the receiver's schedule slot a before the ordinary
// arrival path runs. Carrying the time in the event (instead of writing
// the peer's schedule from the sending domain) keeps cross-domain state
// ownership clean in sharded exchanges.
var kindRxArrivalAt = sim.RegisterKind("nic.rxArrivalAt", func(ctx any, a, b int64) {
	s := ctx.(*rxSim)
	s.arrivals[a].At = sim.Time(b)
	s.onArrival(int(a))
})

// newCoupled wires one transfer pair onto a tx and an rx device sharing
// one engine: each packet's injection posts its arrival at the receiver a
// wire latency later. It returns the two message simulations with the
// sender's launch schedule posted.
func newCoupled(txDev *txDevice, rxDev *rxDevice, pair *CoupledMessage) (*txSim, *rxSim, error) {
	if pair.Rx.Arrivals != nil {
		return nil, nil, errors.New("nic: coupled receive cannot carry an explicit arrival schedule")
	}
	if txDev.cfg.Fabric.MTU != rxDev.cfg.Fabric.MTU {
		return nil, nil, fmt.Errorf("nic: sender MTU %d differs from receiver MTU %d",
			txDev.cfg.Fabric.MTU, rxDev.cfg.Fabric.MTU)
	}
	if int64(len(pair.Rx.Packed)) != pair.Tx.MsgBytes {
		return nil, nil, fmt.Errorf("nic: sender injects %d bytes, receiver expects %d",
			pair.Tx.MsgBytes, len(pair.Rx.Packed))
	}
	pkts, err := rxDev.cfg.Fabric.Packetize(pair.Tx.MsgBytes)
	if err != nil {
		return nil, nil, err
	}
	arrivals := make([]fabric.Arrival, len(pkts))
	for i := range pkts {
		arrivals[i].Packet = pkts[i]
	}
	rx, err := rxDev.newMessage(pair.Rx.PT, pair.Rx.Bits, pair.Rx.Packed, pair.Rx.Host, arrivals)
	if err != nil {
		return nil, nil, err
	}
	rx.notify = pair.Rx.Notify
	rx.deferFirstByte = true

	m := pair.Tx // local copy: the notify hook must not escape into the caller's slice
	wire := txDev.cfg.Fabric.WireLatency
	user := m.Notify
	m.Notify = func(pkt int, injected sim.Time) {
		if user != nil {
			user(pkt, injected)
		}
		at := injected + wire
		rxDev.eng.Post(at, kindRxArrivalAt, rx.self, int64(pkt), int64(at))
	}
	tx, err := txDev.newMessage(&m)
	if err != nil {
		return nil, nil, err
	}
	tx.postLaunch(&m)
	return tx, rx, nil
}

// RunCoupled simulates end-to-end transfers whose senders share one
// outbound device and whose receivers share one inbound device, connected
// by the fabric: packets arrive exactly one wire latency after their
// injection completes. Results are per transfer, in input order.
func RunCoupled(txCfg, rxCfg Config, pairs []CoupledMessage) ([]SendResult, []Result, error) {
	if len(pairs) == 0 {
		return nil, nil, errors.New("nic: empty transfer batch")
	}
	eng := sim.Acquire()
	defer sim.Release(eng)
	txDev, err := newTxDevice(eng, txCfg)
	if err != nil {
		return nil, nil, err
	}
	rxDev, err := newRxDevice(eng, rxCfg)
	if err != nil {
		return nil, nil, err
	}
	txs := make([]*txSim, len(pairs))
	rxs := make([]*rxSim, len(pairs))
	for i := range pairs {
		txs[i], rxs[i], err = newCoupled(txDev, rxDev, &pairs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("nic: transfer %d: %w", i, err)
		}
	}
	eng.Run()
	return finishCoupled(txs, rxs)
}

// finishCoupled assembles the per-transfer results after the engine
// drained.
func finishCoupled(txs []*txSim, rxs []*rxSim) ([]SendResult, []Result, error) {
	sends := make([]SendResult, len(txs))
	recvs := make([]Result, len(rxs))
	for i := range txs {
		sr, err := txs[i].finish()
		if err != nil {
			return nil, nil, fmt.Errorf("nic: transfer %d send: %w", i, err)
		}
		rr, err := rxs[i].finish()
		if err != nil {
			return nil, nil, fmt.Errorf("nic: transfer %d receive: %w", i, err)
		}
		sends[i] = sr
		recvs[i] = rr
	}
	return sends, recvs, nil
}
