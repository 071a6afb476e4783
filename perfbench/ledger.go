package main

import (
	"fmt"
	"io"
)

// layerLink names, for one per-layer metric of the traced run, the
// end-to-end metrics it should move on its workload.
type layerLink struct {
	metric string // workload.layer.metric, as the traced run reports it
	moves  string
}

// ledgerMap is the layer -> end-to-end map of the traced run. Every
// workload also reports runtime.alloc_MB_per_op, runtime.allocs_per_op
// and runtime.gc_cycles_per_op (-> peak_heap_MB, op_tail_ms), and
// trace.overhead_ms, the traced minus the untraced op_p50_ms.
var ledgerMap = []layerLink{
	{"halo.nic.exchange_ms", "op_p50_ms, payload_MBps"},
	{"halo.nic.handler_runs", "sim_Gbps"},
	{"halo.nic.windows", "sim_Gbps, op_p50_ms"},
	{"halo.nic.dma_writes", "sim_Gbps"},
	{"halo.nic.pktbuf_peak", "sim_Gbps"},
	{"halo.nic.makespan_us", "sim_Gbps"},
	{"halo.core.instantiate_us", "op_p50_ms"},
	{"halo.core.build_ms", "setup_s"},
	{"halo.plan.verify_ms", "op_p50_ms"},
	{"halo.ddt.commit_ms", "setup_s"},
	{"served.server.rtt_open_ms", "op_p50_ms, op_tail_ms"},
	{"served.server.rtt_commit_ms", "op_p50_ms, op_tail_ms"},
	{"served.server.rtt_post_ms", "op_p50_ms, op_tail_ms"},
	{"served.server.rtt_flush_ms", "op_p50_ms, op_tail_ms"},
	{"served.server.rtt_close_ms", "op_p50_ms, op_tail_ms"},
	{"served.ddt.encode_us", "op_p50_ms"},
	{"served.server.requests", "verified_frac"},
	{"served.server.rejections", "verified_frac"},
	{"served.transport.data_frames", "op_tail_ms"},
	{"served.transport.acks", "op_tail_ms"},
	{"served.transport.retransmits", "op_tail_ms"},
	{"wire.core.post_us", "op_p50_ms"},
	{"wire.core.send_us", "op_p50_ms"},
	{"wire.core.flush_ms", "op_p50_ms, payload_MBps"},
	{"wire.core.flush_sends_ms", "op_p50_ms, payload_MBps"},
	{"wire.ddt.commit_ms", "setup_s"},
	{"wire.plan.fused_pack_crc", "payload_MBps"},
	{"wire.plan.fused_unpack_crc", "payload_MBps"},
}

// deterministic are the ledger counters that depend on the program and
// the seed only; a rerun with the same seed must repeat them exactly.
var deterministic = []string{
	"nic.handler_runs", "nic.windows", "nic.dma_writes", "nic.pktbuf_peak", "nic.makespan_us",
	"server.requests", "server.rejections", "transport.data_frames",
	"plan.fused_pack_crc", "plan.fused_unpack_crc",
}

// perWorkload are the ledger metrics every workload reports.
var perWorkload = []layerLink{
	{"runtime.alloc_MB_per_op", "peak_heap_MB, op_tail_ms"},
	{"runtime.allocs_per_op", "peak_heap_MB, op_tail_ms"},
	{"runtime.gc_cycles_per_op", "peak_heap_MB, op_tail_ms"},
	{"trace.overhead_ms", "(traced minus untraced op_p50_ms)"},
}

// ledgerNames lists every metric the traced run reports.
func ledgerNames() []string {
	var out []string
	for _, l := range ledgerMap {
		out = append(out, l.metric)
	}
	for _, wl := range workloads {
		for _, l := range perWorkload {
			out = append(out, wl+"."+l.metric)
		}
	}
	return out
}

func printLedgerMap(w io.Writer) {
	fmt.Fprintln(w, "layer metric -> end-to-end metrics it should move (same workload)")
	for _, l := range ledgerMap {
		fmt.Fprintf(w, "  %-32s -> %s\n", l.metric, l.moves)
	}
	for _, l := range perWorkload {
		fmt.Fprintf(w, "  %-32s -> %s\n", "<workload>."+l.metric, l.moves)
	}
}
