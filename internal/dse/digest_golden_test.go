package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/power"
)

// resultDigest hashes everything a Phase-2 search decides: every field of
// every evaluated design (floats by their bit patterns), the Pareto indices,
// the conventional picks, the scored-design count, the failure records' job
// names and kinds, and the skip records. The digests were captured when the
// evaluator still had a cache of its own; its hit count, 0 in every pinned
// run, is written as that constant.
func resultDigest(res *Result) string {
	h := sha256.New()
	bits := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%016x,", math.Float64bits(v))
		}
	}
	for _, e := range res.Evaluated {
		d := e.Design
		fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%d,%d,%q,%q,%q,%q;",
			d.Hyper.Layers, d.Hyper.Filters, d.HW.Rows, d.HW.Cols,
			d.HW.IfmapKB, d.HW.FilterKB, d.HW.OfmapKB, int(d.HW.Dataflow),
			d.Algo, d.Vehicle.Airframe, d.Vehicle.Battery, d.Vehicle.Sensor)
		bits(d.HW.FreqMHz, d.HW.BandwidthGBps)
		bits(e.SuccessRate, e.FPS, e.RuntimeSec, e.SoCPowerW, e.AccelPowerW)
		b := e.Breakdown
		bits(b.PEDynamic, b.PEStatic, b.SRAMDynamic, b.SRAMStatic, b.DRAMDynamic, b.DRAMStatic)
		v := e.Vehicle
		fmt.Fprintf(h, "%q,%q,%q;", v.Loadout.Airframe, v.Loadout.Battery, v.Loadout.Sensor)
		bits(v.PayloadG, v.TotalWeightG, v.TotalPowerW, v.VSafeMS, v.Missions)
		fmt.Fprint(h, "\n")
	}
	fmt.Fprintf(h, "pareto %v\npicks %d %d %d\ncache %d %d\n",
		res.ParetoIdx, res.HT, res.LP, res.HE, 0, res.CacheMisses)
	for _, f := range res.Failures {
		fmt.Fprintf(h, "failure %q %s\n", f.Job, f.Kind)
	}
	for _, s := range res.Skips {
		fmt.Fprintf(h, "skip %q %q %q %q %q %q\n", s.Design,
			s.Loadout.Airframe, s.Loadout.Battery, s.Loadout.Sensor, s.Reason, s.Detail)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// TestSearchDigestGolden pins every Phase-2 optimizer bit for bit, at one
// and at eight workers: the five optimizers at the small test budget, all of
// them again at DefaultConfig's budget, the algorithm co-search space, the
// vehicle space and a seeded chaos run under a failure budget. The digests
// were captured before the optimizers were rewritten as ask/tell proposers,
// and the two default-budget Bayesian ones before the acquisition shared one
// GP solve and swept its contributions, so any drift in a search trajectory,
// a scored-design count, a failure or a skip record fails here.
func TestSearchDigestGolden(t *testing.T) {
	base := func(opt Optimizer, cfg Config) Request {
		return Request{
			Space: DefaultSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
			Power: power.Default(), Config: cfg, Optimizer: opt,
		}
	}
	small, def := smallConfig(), DefaultConfig()
	cosearch := base(OptBayesian, small)
	cosearch.Space = coSearchSpace()
	vehicle := base(OptBayesian, small)
	vehicle.Space = vehicleSpace()
	chaos := base(OptBayesian, small)
	chaos.Injector = &fault.Injector{Seed: 11, ErrorRate: 0.08, NaNRate: 0.08}
	chaos.FailureBudget = 1

	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"bayesian/small", base(OptBayesian, small), "d7a85c9192404838"},
		{"genetic/small", base(OptGenetic, small), "be03e76e6cb01e29"},
		{"annealing/small", base(OptAnnealing, small), "46e478bb0bd1f860"},
		{"reinforce/small", base(OptReinforce, small), "71850e20f731f01d"},
		{"random/small", base(OptRandom, small), "5dcdb6a29df7848e"},
		{"bayesian/default", base(OptBayesian, def), "f072fa229370b4e5"},
		{"genetic/default", base(OptGenetic, def), "1bf83212bea5bd98"},
		{"annealing/default", base(OptAnnealing, def), "8730c29baedee0f9"},
		{"reinforce/default", base(OptReinforce, def), "10fbf7f4aa787571"},
		{"random/default", base(OptRandom, def), "233b5c72ac9cc110"},
		{"cosearch/small", cosearch, "66f0a819da768d97"},
		{"vehicle/small", vehicle, "ba9528ffa83a6550"},
		{"chaos/small", chaos, "1142d8b0566c457e"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			req := c.req
			req.Workers = workers
			res, err := Execute(context.Background(), req)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if got := resultDigest(res); got != c.want {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}
