package main

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// The universe every workload runs on: SynthDense with 64 packages of 8
// versions, 3 dependencies each. The universe and the hot set are the same
// for every seed (the seed draws the request streams): solver effort per
// request depends strongly on the universe and the shapes, and a seeded
// universe would make the spread between runs measure the draw rather
// than the program. With the hot set below, a minimal-change miss takes
// about 2 ms at the median and 5 ms at p90 over HTTP, far inside the
// daemon's 10 s default deadline.
const (
	densePkgs     = 64
	denseVersions = 8
	denseDeps     = 3
	universeSeed  = 42

	// numShapes is the size of the hot set: the newest-objective request
	// shapes every workload draws its resolves from, all answered during
	// set-up. A shape names one or two packages without version bounds.
	numShapes = 32
	// rootFloor keeps shape roots in the bottom quarter of the DAG
	// (dense48..dense63), whose closures are small and never reach the
	// packages below it. On deeper roots the cost of a minimal-change
	// stream depends on its order more than on the program: on fresh
	// pools, eight orders of the same 256 requests took 1.4-3.7 s and
	// 57k-200k conflicts.
	rootFloor = 48
	// applyEvery makes every applyEvery'th churn operation a POST /v1/apply.
	applyEvery = 10
)

// newUniverse generates the benchmark's universe. The daemon and the
// benchmark's replica each get their own copy.
func newUniverse() *repo.Universe {
	u, _ := repo.SynthDense(densePkgs, denseVersions, denseDeps, universeSeed)
	return u
}

// streamRand returns the PRNG of one input stream of a run. Every stream
// is a pure function of (seed, stream), so a seed fixes the inputs.
func streamRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// Stream identifiers for streamRand; client c of a workload draws its
// operations from stream streamOps+c.
const (
	streamSample = 1
	streamProbe  = 2
	streamOps    = 10
)

// deck deals the indices 0..n-1 in seeded random order, a fresh
// permutation per round, so every index is dealt equally often: over a
// run, each shape is requested (and each package grown) about as often on
// every seed, and the seeds differ in order rather than in mix.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) deal() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}

// hotSet draws the numShapes distinct request shapes of the hot set.
func hotSet() [][]string {
	rng := rand.New(rand.NewSource(universeSeed))
	seen := map[string]bool{}
	var out [][]string
	for len(out) < numShapes {
		root := func() string { return fmt.Sprintf("dense%d", rootFloor+rng.Intn(densePkgs-rootFloor)) }
		roots := []string{root()}
		if rng.Intn(2) == 0 {
			roots = append(roots, root())
		}
		sort.Strings(roots)
		roots = slices.Compact(roots)
		key := strings.Join(roots, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, roots)
	}
	return out
}

// op is one operation of a workload stream: a resolve, or an apply that
// adds one newer version of a package.
type op struct {
	req   serve.ResolveRequest
	apply *versionAdd
}

// versionAdd is one delta of the churn stream or the apply probe: a new
// version of an existing package depending on the same packages as its
// newest version.
type versionAdd struct {
	pkg, ver string
	deps     []string
}

func (a *versionAdd) wire() serve.ApplyRequest {
	add := serve.VersionAddRequest{Pkg: a.pkg, Version: a.ver}
	for _, d := range a.deps {
		add.Deps = append(add.Deps, serve.DeclRequest{Pkg: d})
	}
	return serve.ApplyRequest{Adds: []serve.VersionAddRequest{add}}
}

func (a *versionAdd) delta() *repo.Delta {
	var decls []repo.Decl
	for _, d := range a.deps {
		decls = append(decls, repo.Dep(d, ":"))
	}
	d := repo.NewDelta()
	d.Add(a.pkg, a.ver, decls...)
	return d
}

// nextVersionAdd makes the next churn delta against the replica's current
// state: package dense<i> gains the version after its newest.
func nextVersionAdd(i int, u *repo.Universe) *versionAdd {
	name := fmt.Sprintf("dense%d", i)
	p, _ := u.Package(name)
	newest := p.Versions()[0]
	major, _ := strconv.Atoi(strings.SplitN(newest.Version.String(), ".", 2)[0])
	a := &versionAdd{pkg: name, ver: fmt.Sprintf("%d.0", major+1)}
	for _, d := range newest.Deps {
		a.deps = append(a.deps, d.Pkg)
	}
	return a
}

// generator yields a workload's operations in order. next may read the
// replica, which the benchmark keeps in step with every applied delta, so a
// single-client stream is a pure function of the seed.
type generator interface {
	next(u *repo.Universe) op
}

// hitGen draws newest-objective resolves over the hot set: every request
// is answered from the session solution caches filled during set-up.
type hitGen struct {
	shapes *deck
	hot    [][]string
}

func (g *hitGen) next(*repo.Universe) op {
	return op{req: serve.ResolveRequest{Roots: g.hot[g.shapes.deal()]}}
}

// reuseGen draws minimal-change resolves: a hot-set shape with the
// installed profile of its set-up answer, one to three of whose packages
// are installed one or two versions older. Profiles never repeat, so every
// request misses both the answer cache and the bound memo.
type reuseGen struct {
	rng    *rand.Rand
	shapes *deck
	hot    [][]string
	base   []map[string]string
	// seen holds a hash of every profile sent, so its size stays small
	// next to the daemon's heap (see hist).
	seen map[uint64]bool
}

func (g *reuseGen) next(u *repo.Universe) op {
	for {
		i := g.shapes.deal()
		prof := maps.Clone(g.base[i])
		pkgs := slices.Sorted(maps.Keys(prof))
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			p, _ := u.Package(pkgs[g.rng.Intn(len(pkgs))])
			at := p.IndexOf(version.MustParse(prof[p.Name]))
			if older := at + 1 + g.rng.Intn(2); older < p.NumVersions() {
				prof[p.Name] = p.Versions()[older].Version.String()
			}
		}
		h := fnv.New64a()
		h.Write([]byte(strconv.Itoa(i) + "|" + canonicalProfile(prof)))
		key := h.Sum64()
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return op{req: serve.ResolveRequest{Roots: g.hot[i], Objective: "minimal-change", Installed: prof}}
	}
}

// churnGen interleaves newest-objective resolves over the hot set with an
// apply every applyEvery'th operation.
type churnGen struct {
	shapes, pkgs *deck
	hot          [][]string
	n            int
}

func (g *churnGen) next(u *repo.Universe) op {
	g.n++
	if g.n%applyEvery == 0 {
		return op{apply: nextVersionAdd(g.pkgs.deal(), u)}
	}
	return op{req: serve.ResolveRequest{Roots: g.hot[g.shapes.deal()]}}
}

func canonicalProfile(p map[string]string) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(p)) {
		b.WriteString(k + "=" + p[k] + " ")
	}
	return b.String()
}
