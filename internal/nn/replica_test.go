// Replicas vs the network they copy: the training engine's determinism
// contract requires a replica's Forward to be bitwise the source's Forward,
// to leave the source's buffers and gradients alone, and to be safe next to
// other replicas of the same frozen network on other goroutines. The tests
// run from an external package so they can build real policy-template
// networks and environment observations.
package nn_test

import (
	"sync"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
)

// gatherObs rolls the expert policy through the environment to collect a
// varied batch of real observations.
func gatherObs(t *testing.T, n int) []airlearning.Observation {
	t.Helper()
	env := airlearning.NewEnv(airlearning.MediumObstacle, 11)
	expert := airlearning.ExpertPolicy{Env: env}
	obs := env.Reset()
	out := make([]airlearning.Observation, 0, n)
	for len(out) < n {
		out = append(out, obs)
		next, _, done := env.Step(expert.Act(obs))
		obs = next
		if done {
			obs = env.Reset()
		}
	}
	return out
}

func bitwiseEqual(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, v := range a.Data() {
		if v != b.Data()[i] {
			return false
		}
	}
	return true
}

func TestMultiModalReplicaBitwiseMatchesForward(t *testing.T) {
	for _, h := range []policy.Hyper{
		{Layers: 2, Filters: 32},
		{Layers: 4, Filters: 48},
		{Layers: 7, Filters: 64},
	} {
		net, err := policy.NewTrainable(h, policy.DefaultTrainable(), tensor.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		rep := net.Replica()
		for i, o := range gatherObs(t, 8) {
			got := rep.Forward(o.Image, o.State).Clone()
			if want := net.Forward(o.Image, o.State); !bitwiseEqual(got, want) {
				t.Fatalf("%s sample %d: replica Forward = %v, Forward = %v",
					h, i, got.Data(), want.Data())
			}
		}
	}
}

// TestReplicaLeavesSourceUntouched checks a replica leaves no trace in the
// network it copies: the source's last output stays as it was, and a
// Backward after the replica's forwards accumulates exactly the gradients
// of a network that never had a replica.
func TestReplicaLeavesSourceUntouched(t *testing.T) {
	h := policy.Hyper{Layers: 3, Filters: 32}
	mk := func() *nn.MultiModal {
		net, err := policy.NewTrainable(h, policy.DefaultTrainable(), tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	withReplica, clean := mk(), mk()
	obs := gatherObs(t, 4)

	// Prime both with one forward, run a replica of one over the other
	// observations, then backprop the same gradient through both and
	// compare parameter grads.
	ref := obs[0]
	outA := withReplica.Forward(ref.Image, ref.State)
	outB := clean.Forward(ref.Image, ref.State)
	if !bitwiseEqual(outA, outB) {
		t.Fatal("identical nets disagree on Forward")
	}
	kept := outA.Clone()
	rep := withReplica.Replica()
	for _, o := range obs[1:] {
		rep.Forward(o.Image, o.State)
	}
	if !bitwiseEqual(outA, kept) {
		t.Fatal("replica Forward overwrote the source's output buffer")
	}

	grad := tensor.New(outA.Len())
	grad.Data()[0] = 1
	withReplica.ZeroGrads()
	clean.ZeroGrads()
	withReplica.Backward(grad)
	clean.Backward(grad.Clone())
	ga, gb := withReplica.Grads(), clean.Grads()
	if len(ga) != len(gb) {
		t.Fatalf("grad count %d != %d", len(ga), len(gb))
	}
	for i := range ga {
		if !bitwiseEqual(ga[i], gb[i]) {
			t.Fatalf("grad %d differs after replica forwards: the replica wrote the source's state", i)
		}
	}
}

// TestReplicasRunConcurrently runs four replicas of one frozen network on
// four goroutines, each over every observation, and checks each against the
// source's sequential Forward. Under -race it also shows the replicas share
// nothing they write.
func TestReplicasRunConcurrently(t *testing.T) {
	net, err := policy.NewTrainable(policy.Hyper{Layers: 3, Filters: 64}, policy.DefaultTrainable(), tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	obs := gatherObs(t, 12)
	want := make([]*tensor.Tensor, len(obs))
	for i, o := range obs {
		want[i] = net.Forward(o.Image, o.State).Clone()
	}
	const replicas = 4
	bad := make([]int, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		rep := net.Replica()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bad[r] = -1
			for k := range obs {
				i := (k + 3*r) % len(obs) // each replica starts elsewhere
				if !bitwiseEqual(rep.Forward(obs[i].Image, obs[i].State), want[i]) {
					bad[r] = i
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, i := range bad {
		if i >= 0 {
			t.Errorf("replica %d: Forward on sample %d differs from the source's", r, i)
		}
	}
}

func TestSequentialReplicaMatchesForward(t *testing.T) {
	// Every stock layer's replica must compute what the layer computes.
	g := tensor.NewRNG(9)
	conv := tensor.ConvDims{InC: 2, InH: 5, InW: 5, OutC: 3, K: 3, Stride: 2, Pad: 1}
	seq := nn.NewSequential(
		nn.NewConv2D(conv, g), nn.NewReLU(), nn.NewFlatten(),
		nn.NewDense(27, 4, g), nn.NewReLU(), nn.NewDense(4, 2, g))
	rep := seq.Replica()
	for i := 0; i < 5; i++ {
		x := g.Randn(1, conv.InC, conv.InH, conv.InW)
		got := rep.Forward(x).Clone()
		if want := seq.Forward(x); !bitwiseEqual(got, want) {
			t.Fatalf("sample %d: %v != %v", i, got.Data(), want.Data())
		}
	}
}
