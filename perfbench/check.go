package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// checkAnswer verifies a daemon answer straight from the universe's
// declarations, sharing no code with the concretizer's encoder or its
// verify: every root is satisfied, every picked version exists and has
// each active dependency met by the picks, and no active conflict names a
// picked version. Deltas only add versions, so an answer that holds at the
// epoch it was computed at also holds at any later epoch of the replica.
func checkAnswer(u *repo.Universe, roots []string, picks map[string]string) error {
	sel := make(map[string]version.Version, len(picks))
	defs := make(map[string]repo.VersionDef, len(picks))
	for pkg, vs := range picks {
		v, err := version.Parse(vs)
		if err != nil {
			return fmt.Errorf("pick %s@%s: %v", pkg, vs, err)
		}
		p, ok := u.Package(pkg)
		if !ok {
			return fmt.Errorf("pick %s: no such package", pkg)
		}
		i := p.IndexOf(v)
		if i < 0 {
			return fmt.Errorf("pick %s@%s: no such version", pkg, vs)
		}
		sel[pkg] = v
		defs[pkg] = p.Versions()[i]
	}
	// met reports whether some picked candidate for name lies in rng.
	met := func(name string, rng version.Range) bool {
		cands, _ := u.Candidates(name)
		for _, c := range cands {
			if v, ok := sel[c.Pkg]; ok && v.Equal(c.Version) && rng.Satisfies(c.Matched) {
				return true
			}
		}
		return false
	}
	active := func(w repo.Condition) bool { return w.IsZero() || met(w.Pkg, w.Range) }
	for _, r := range roots {
		name, rng, err := parseRoot(r)
		if err != nil {
			return err
		}
		if !met(name, rng) {
			return fmt.Errorf("root %s not satisfied", r)
		}
	}
	for pkg, def := range defs {
		for _, d := range def.Deps {
			if active(d.When) && !met(d.Pkg, d.Range) {
				return fmt.Errorf("%s@%s: dependency %s@%s not met", pkg, def.Version, d.Pkg, d.Range)
			}
		}
		for _, c := range def.Conflicts {
			if active(c.When) && met(c.Pkg, c.Range) {
				return fmt.Errorf("%s@%s: conflict with %s@%s is active", pkg, def.Version, c.Pkg, c.Range)
			}
		}
	}
	return nil
}

// parseRoot splits a request spec ("dense3", "dense3@:5",
// "virtual:mpi@2:") into its target name and version range.
func parseRoot(s string) (string, version.Range, error) {
	s = strings.TrimPrefix(s, "virtual:")
	name, rs, found := strings.Cut(s, "@")
	if !found {
		return name, version.AnyRange, nil
	}
	rng, err := version.ParseRange(rs)
	if err != nil {
		return "", version.Range{}, fmt.Errorf("root %s: %v", s, err)
	}
	return name, rng, nil
}

// sample is one answer kept for the post-run re-solve, with the epoch
// current when it arrived.
type sample struct {
	index int
	epoch repo.Epoch
	req   serve.ResolveRequest
	resp  serve.ResolveResponse
}

// resolveSample re-solves a kept request on a fresh one-shot session over
// the universe as it stood when the answer arrived (the generated universe
// plus the first s.epoch deltas), and reports whether the daemon's cost
// was optimal.
func resolveSample(deltas []*versionAdd, s sample) error {
	u := newUniverse()
	for _, a := range deltas[:s.epoch] {
		if _, err := u.Apply(a.delta()); err != nil {
			return fmt.Errorf("replay delta: %v", err)
		}
	}
	req := resolve.Request{Objective: resolve.NewestVersion()}
	for _, r := range s.req.Roots {
		root, err := resolve.ParseRoot(r)
		if err != nil {
			return err
		}
		req.Roots = append(req.Roots, root)
	}
	if s.req.Objective == "minimal-change" {
		prof := repo.Profile{}
		for pkg, v := range s.req.Installed {
			prof[pkg] = version.MustParse(v)
		}
		req.Objective = resolve.MinimalChange(prof)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := resolve.NewSessionResolver(u, resolve.SessionOptions{}).Resolve(ctx, req)
	if err != nil {
		return fmt.Errorf("fresh resolve: %v", err)
	}
	if res.Stats.Cost != s.resp.Cost || !s.resp.Optimal {
		return fmt.Errorf("daemon cost %d (optimal=%v), fresh one-shot cost %d", s.resp.Cost, s.resp.Optimal, res.Stats.Cost)
	}
	return nil
}
