package nic

import (
	"errors"
	"fmt"

	"spinddt/internal/fabric"
	"spinddt/internal/portals"
	"spinddt/internal/sim"
)

// BatchMessage describes one message of a batched receive: its match bits
// against the shared portal table, its packed stream and destination
// buffer, and the time its first bit leaves the sender. Order optionally
// permutes the message's packet delivery (nil = in-order).
type BatchMessage struct {
	PT     *portals.PT
	Bits   portals.MatchBits
	Packed []byte
	Host   []byte
	Start  sim.Time
	Order  []int
	// Arrivals, when non-nil, is an explicit packet arrival schedule (a
	// sender-side simulation pacing this receiver); Start and Order are
	// ignored. The schedule must deliver the header packet first and the
	// completion packet last.
	Arrivals []fabric.Arrival
	// Notify, when non-nil, observes the message's completion time.
	Notify func(done sim.Time)
}

// ReceiveBatch simulates the arrival and processing of many messages at
// ONE NIC in a single residency pass: all messages share the device's
// inbound parser, physical HPU pool, DMA channels and PCIe link, and their
// execution contexts must fit NIC memory together. This is the traffic an
// endpoint sees during a real exchange (alltoall, halo): packets of
// overlapping messages interleave on the device instead of each message
// having the NIC to itself.
//
// Results are per message, in input order. Messages whose arrival windows
// do not overlap report exactly what an isolated Receive of the same
// message would (shifted by Start); overlapping messages contend and slow
// each other down, which is the point.
func ReceiveBatch(cfg Config, msgs []BatchMessage) ([]Result, error) {
	if len(msgs) == 0 {
		return nil, errors.New("nic: empty batch")
	}
	eng := sim.Acquire()
	defer sim.Release(eng)
	dev, sims, schedules, err := newBatch(eng, cfg, msgs)
	defer releaseSchedules(schedules)
	if err != nil {
		return nil, err
	}
	for _, s := range sims {
		s.postArrivals()
	}
	eng.Run()
	results, err := finishBatch(sims)
	if err != nil {
		return nil, err
	}
	releaseRxBatch(dev, sims)
	return results, nil
}

// newBatch builds one shared device plus a message simulation per batch
// entry on eng, arrival schedules offset by each message's Start (or taken
// verbatim from the message). It returns the pooled schedule buffers it
// allocated; the caller releases them after the results are assembled. The
// device is drawn from the pool; a successful batch hands it back via
// releaseRxBatch.
func newBatch(eng *sim.Engine, cfg Config, msgs []BatchMessage) (*rxDevice, []*rxSim, [][]fabric.Arrival, error) {
	dev, err := acquireRxDevice(eng, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sims := make([]*rxSim, len(msgs))
	var schedules [][]fabric.Arrival
	for i := range msgs {
		m := &msgs[i]
		arrivals := m.Arrivals
		if arrivals == nil {
			arrivals, err = cfg.Fabric.AppendSchedule(getArrivalBuf(), int64(len(m.Packed)), m.Start, m.Order)
			if err != nil {
				return nil, nil, schedules, fmt.Errorf("nic: batch message %d: %w", i, err)
			}
			schedules = append(schedules, arrivals)
		}
		s, err := dev.newMessage(m.PT, m.Bits, m.Packed, m.Host, arrivals)
		if err != nil {
			return nil, nil, schedules, fmt.Errorf("nic: batch message %d: %w", i, err)
		}
		s.notify = m.Notify
		sims[i] = s
	}
	return dev, sims, schedules, nil
}

// releaseRxBatch returns a drained batch's message simulations and shared
// device to their pools. Callers must have extracted every Result
// (finishBatch) first.
func releaseRxBatch(dev *rxDevice, sims []*rxSim) {
	for _, s := range sims {
		releaseRxSim(s)
	}
	releaseRxDevice(dev)
}

// releaseSchedules returns pooled arrival buffers after a batch finished.
func releaseSchedules(schedules [][]fabric.Arrival) {
	for _, buf := range schedules {
		putArrivalBuf(buf)
	}
}

// finishBatch assembles the per-message results after the engine drained.
func finishBatch(sims []*rxSim) ([]Result, error) {
	results := make([]Result, len(sims))
	for i, s := range sims {
		r, err := s.finish()
		if err != nil {
			return nil, fmt.Errorf("nic: batch message %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}
