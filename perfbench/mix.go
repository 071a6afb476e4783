package main

import (
	"fmt"

	"spinddt/internal/apps"
	"spinddt/internal/core"
)

// appFootprintCap bounds the receive footprint of the app instances the
// served and wire workloads draw from. The largest Fig. 16 instances
// (NAS-MG d, FFT2D d) need up to 134 MB per receive, which pushes the
// heap into hundreds of MB and turns set-up into a page-fault count; at
// 4 MiB the mix keeps every structure family of the figure.
const appFootprintCap = 4 << 20

// cappedApps returns the Fig. 16 instances whose receive footprint fits
// appFootprintCap, in apps.All order, and their indices in apps.All.
func cappedApps() ([]apps.Instance, []int) {
	var out []apps.Instance
	var idx []int
	for i, in := range apps.All() {
		if _, hi := in.Type.Footprint(in.Count); hi <= appFootprintCap {
			out = append(out, in)
			idx = append(idx, i)
		}
	}
	return out, idx
}

// mixSimGbps is the modelled sPIN receive throughput of the capped app
// mix: every instance unpacked once on the simulated NIC with the
// strategy a commit would select, payload bits over summed simulated
// processing time. It depends on the device model only, never on host
// speed.
func mixSimGbps() (float64, error) {
	insts, _ := cappedApps()
	var bits, secs float64
	for _, in := range insts {
		res, err := core.Run(core.NewRequest(core.SelectStrategy(in.Type), in.Type, in.Count))
		if err != nil {
			return 0, fmt.Errorf("simulate %s: %w", in.Name(), err)
		}
		if !res.Verified {
			return 0, fmt.Errorf("simulate %s: receive buffer not verified", in.Name())
		}
		bits += float64(res.MsgBytes) * 8
		secs += res.ProcTime.Seconds()
	}
	return bits / secs / 1e9, nil
}
