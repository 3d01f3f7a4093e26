// Package uav names the paper's fixed vehicles and boards as catalog values:
// the Table IV platforms (AscTec Pelican mini-UAV, DJI Spark micro-UAV, and
// the Zhang et al. nano quadrotor), each an airframe with its default battery
// and sensor, and the baseline compute boards the paper compares against
// (Jetson TX2, Xavier NX, PULP-DroNet, Intel NCS).
package uav

import "autopilot/internal/catalog"

// loadout returns a catalog airframe with its default battery and sensor.
func loadout(airframe string) catalog.Loadout {
	lo, err := catalog.DefaultLoadout(airframe)
	if err != nil {
		panic(err) // the Table IV airframes are always in the catalog
	}
	return lo
}

// AscTecPelican is the mini-UAV (Table IV): 6250 mAh, 1650 g base weight.
func AscTecPelican() catalog.Loadout { return loadout("pelican") }

// DJISpark is the micro-UAV (Table IV): 1480 mAh, 300 g base weight.
func DJISpark() catalog.Loadout { return loadout("spark") }

// ZhangNano is the nano-UAV from Zhang et al. (Table IV): 500 mAh, 50 g base
// weight, high thrust-to-weight (the agile platform of Fig. 11).
func ZhangNano() catalog.Loadout { return loadout("nano") }

// Platforms returns the three Table IV UAVs in mini/micro/nano order.
func Platforms() []catalog.Loadout {
	return []catalog.Loadout{AscTecPelican(), DJISpark(), ZhangNano()}
}

// board returns a catalog compute board.
func board(name string) catalog.ComputeBoard {
	b, err := catalog.BoardByName(name)
	if err != nil {
		panic(err) // the baseline boards are always in the catalog
	}
	return b
}

// JetsonTX2 is the NVIDIA Jetson TX2 as flown (module + carrier + heatsink).
func JetsonTX2() catalog.ComputeBoard { return board("jetson-tx2") }

// XavierNX is the NVIDIA Xavier NX in a stripped flight configuration
// (module + minimal carrier + heatsink).
func XavierNX() catalog.ComputeBoard { return board("xavier-nx") }

// PULPDroNet is the 64 mW PULP visual-navigation chip; the paper reports its
// published 6 FPS as-is even for the much larger AutoPilot models.
func PULPDroNet() catalog.ComputeBoard { return board("pulp-dronet") }

// IntelNCS is the Intel Neural Compute Stick (Table V).
func IntelNCS() catalog.ComputeBoard { return board("intel-ncs") }

// Baselines returns the Fig. 5 comparison boards (TX2, NX, PULP).
func Baselines() []catalog.ComputeBoard {
	return []catalog.ComputeBoard{JetsonTX2(), XavierNX(), PULPDroNet()}
}

// AllBaselines returns every baseline compute board: the Fig. 5 trio plus
// the Intel NCS (Table V).
func AllBaselines() []catalog.ComputeBoard {
	return append(Baselines(), IntelNCS())
}
