package airlearning

import "context"

// Policy selects a discrete action from an observation.
type Policy interface {
	Act(obs Observation) int
}

// EpisodeResult summarizes one rollout.
type EpisodeResult struct {
	Outcome Outcome
	Steps   int
	Return  float64
}

// RunEpisode rolls the policy out in the environment until termination.
func RunEpisode(env *Env, p Policy) EpisodeResult {
	res, _ := RunEpisodeContext(context.Background(), env, p)
	return res
}

// RunEpisodeContext is RunEpisode checking ctx before every step: once ctx
// is done it stops and returns ctx.Err() with the steps taken so far.
func RunEpisodeContext(ctx context.Context, env *Env, p Policy) (EpisodeResult, error) {
	obs := env.Reset()
	var res EpisodeResult
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		next, reward, done := env.Step(p.Act(obs))
		res.Return += reward
		res.Steps++
		if done {
			res.Outcome = env.OutcomeNow()
			return res, nil
		}
		obs = next
	}
}

// ExpertPolicy follows BFS shortest paths; it is an oracle used to validate
// that generated environments are solvable and to upper-bound success rates.
type ExpertPolicy struct {
	Env *Env
}

// Act returns the first move of the current shortest path to the goal, or a
// no-progress fallback when trapped (which ends the episode by collision or
// timeout).
func (e ExpertPolicy) Act(Observation) int {
	path := e.Env.ShortestPath(e.Env.Pos(), e.Env.Goal())
	if len(path) < 2 {
		return 0
	}
	step := Point{path[1].X - path[0].X, path[1].Y - path[0].Y}
	for i, d := range dirs {
		if d == step {
			return i
		}
	}
	return 0
}
