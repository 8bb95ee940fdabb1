package concretize

import (
	"errors"
	"fmt"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// Extend grows the session's encoded skeleton in place to absorb one
// append-only delta, instead of rebuilding the session: new packages and
// versions get fresh variables and clauses, widenable constraints touched
// by the delta (exactly-one rows, requirement-definition disjunctions,
// provider selections) are re-emitted through their handles, parked
// declarations whose targets the delta grew are revived, and only the
// solution-cache / bound-memo entries whose root set's closure reaches one
// of the delta's touched names are invalidated, found through the
// session's name-to-closure index without visiting any other entry.
// Activation literals for untouched roots — and everything the solver
// learnt about them — survive.
//
// The epoch contract: when the bound universe is at the session's epoch,
// Extend applies the delta to it (repo.Universe.Apply) and then extends
// the skeleton; when the universe is already exactly one epoch ahead — a
// sibling session sharing the universe applied this same delta first,
// which is how a portfolio broadcasts — Extend trusts the caller that d
// is that delta and only extends the skeleton. Any other epoch gap is an
// error: the universe changed behind the session's back.
//
// A validation failure mutates nothing. Extend requires a full-universe
// session (NewSession); the request-scoped sessions Concretize builds
// internally cannot extend. Callers must serialize Extend against their
// own concurrent Resolves only in the sense that Resolve calls issued
// concurrently will simply order before or after the extension (both hold
// the session lock); a resolver layer that needs "no request observes a
// half-applied broadcast" adds its own barrier (resolve.PortfolioResolver
// does).
//
// goarxivlint:blocking cancel=none
func (se *Session) Extend(d *repo.Delta) (repo.Epoch, error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if !se.full {
		return se.epoch, errors.New("concretize: Extend on a request-scoped session")
	}
	// Fault-injection site, before any mutation: an injected error aborts
	// cleanly here (universe untouched) — unless a sibling session already
	// applied the delta, in which case this session's skeleton is left one
	// epoch behind the shared universe, the state the caller's quarantine
	// or rebuild path must handle.
	if err := fpExtend.Inject(""); err != nil {
		return se.epoch, fmt.Errorf("concretize: extend: %w", err)
	}
	switch ue := se.u.Epoch(); {
	case ue == se.epoch:
		if _, err := se.u.Apply(d); err != nil {
			return se.epoch, err
		}
	case ue == se.epoch+1:
		// A sibling session sharing the universe already applied this
		// delta; only the skeleton needs to catch up.
	default:
		return se.epoch, fmt.Errorf("concretize: universe at epoch %d, session skeleton at epoch %d: universe mutated behind the session", ue, se.epoch)
	}
	se.extendLocked(d)
	se.epoch = se.u.Epoch()
	se.epochA.Store(uint64(se.epoch))
	return se.epoch, nil
}

// extendLocked performs the in-place skeleton extension for a delta the
// universe has already absorbed. Callers hold se.mu.
//
// goarxivlint:blocking cancel=none
func (se *Session) extendLocked(d *repo.Delta) {
	s := se.solver

	// Learnt clauses are consequences of the formula as it was; widening a
	// clause (detach + re-add a weaker one) can invalidate them, and stale
	// level-0 learnt units would be folded into re-added clauses by
	// normalization, silently narrowing them forever. Forget learnts and
	// rebuild the level-0 trail from axioms FIRST, before any re-adds.
	//
	// Exception: a delta that touches only packages a lazy session never
	// materialized detaches nothing — all skeleton work is deferred to
	// first reach — so the learnt clauses (and the warmth they encode)
	// survive the delta intact.
	needForget := !se.lazy
	if !needForget {
		for _, a := range d.Adds() {
			if _, ok := se.vars[a.Pkg]; ok {
				needForget = true
				break
			}
		}
	}
	if needForget {
		s.ForgetLearnts()
	}

	// dirty collects every name the delta touches, directly or through
	// revival cascades; the worklist re-examines each name's widenable
	// structures. A name can be legitimately re-pushed after processing
	// (a resurrection allocating fresh variables for its candidates), so
	// queue membership is tracked separately from dirtiness.
	dirty := make(map[string]bool)
	var queue []string
	inQ := make(map[string]bool)
	push := func(name string) {
		dirty[name] = true
		if !inQ[name] {
			inQ[name] = true
			queue = append(queue, name)
		}
	}

	// Allocate variables and selection structure for the delta's versions.
	// Within a package group Adds() orders versions descending, so
	// insertion indices ascend and earlier recorded indices stay valid.
	type newVer struct {
		pv  *pkgVars
		idx int
	}
	var newVers []newVer
	adds := d.Adds()
	for gi := 0; gi < len(adds); {
		gj := gi
		for gj < len(adds) && adds[gj].Pkg == adds[gi].Pkg {
			gj++
		}
		group := adds[gi:gj]
		pkg := group[0].Pkg
		pv, ok := se.vars[pkg]
		if !ok && se.lazy {
			// Unmaterialized package on a lazy session (brand-new, or in
			// the universe but never reached): encoding is deferred to
			// first reach, which reads the post-delta universe. Only the
			// invalidation bookkeeping needs the touched names now —
			// cache/memo entries and activations keyed on the package or
			// its provided virtuals must still fall. Neither joins the
			// worklist: there is no encoded structure on them to widen
			// yet, and materialization revives any parked work.
			dirty[pkg] = true
			for _, a := range group {
				for _, pr := range a.Def.Provides {
					dirty[pr.Virtual] = true
				}
			}
			gi = gj
			continue
		}
		switch {
		case !ok:
			// Brand-new package: the universe already holds exactly the
			// delta's versions for it.
			pv = se.encodePackage(pkg)
			for i := range pv.vers {
				newVers = append(newVers, newVer{pv, i})
			}
		case s.FixedFalse(sat.Lit(pv.installed)):
			// The package died at level 0 (every version was proven
			// unbuildable); its variables are unrevivable, so rebuild it
			// wholesale — covering the delta's versions too.
			se.resurrectPackage(pv, push)
		default:
			for _, a := range group {
				idx := pv.pkg.IndexOf(a.Def.Version)
				x := s.NewVar()
				pv.vers = append(pv.vers, 0)
				copy(pv.vers[idx+1:], pv.vers[idx:])
				pv.vers[idx] = x
				s.AddClause(sat.Lit(x).Neg(), sat.Lit(pv.installed))
				newVers = append(newVers, newVer{pv, idx})
			}
			se.emitPackageStructure(pv)
		}
		push(pkg)
		for _, a := range group {
			for _, pr := range a.Def.Provides {
				push(pr.Virtual)
			}
		}
		gi = gj
	}

	// Requirements for the new versions, after every delta package has its
	// structure in place so cross-references between them resolve.
	for _, nv := range newVers {
		se.encodeVersionReqs(nv.pv, nv.idx)
	}

	// Worklist: re-examine every touched name's widenable structures.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		delete(inQ, name)
		se.extendName(name, push)
	}

	// Delta-scoped invalidation. Activations whose target name is dirty
	// carry stale candidate clauses: deactivate them permanently (a later
	// request re-allocates). Cache and bound-memo entries fall only when
	// their closure reaches a dirty name; everything else — including the
	// learnt clauses and phases backing those shapes — survives the delta
	// untouched.
	for el := se.actsLRU.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*actEntry)
		if dirty[ent.target] {
			s.AddClause(ent.lit.Neg())
			se.actsLRU.Remove(el)
			delete(se.acts, ent.key)
		}
		el = next
	}
	se.invalidateClosures(dirty)
	se.syncEncodingStats()
}

// extendName re-examines one touched name: requirement-definition keys on
// it are widened or revived, support keys gain clauses for new candidates,
// its provider-selection clause (when the name is a virtual) is re-emitted,
// and declarations parked under it are re-run.
func (se *Session) extendName(name string, push func(string)) {
	s := se.solver

	// Requirement keys: every dependency site that lowered against a key
	// on this name has its inlined requirement clause detached and its
	// declaration re-run, re-emitting the clause over the current
	// candidate set. This covers widening (new candidates join the
	// disjunction) and revival (a clause that had collapsed into a hard
	// prune — every candidate dead — comes back) uniformly; a site whose
	// own version literal died at level 0 is resurrected by rerunDecl.
	for _, key := range se.defsByName[name] {
		de := se.defs[key]
		users := de.users
		de.users = nil
		seen := make(map[string]bool, len(users))
		for _, site := range users {
			k := siteKey(site.id)
			if seen[k] {
				continue
			}
			seen[k] = true
			s.DetachClause(site.ref)
			se.rerunDecl(site.id, push)
		}
	}

	// Support keys widen additively: one new support clause per candidate
	// not yet seen. Existing conflict and trigger clauses against the
	// support literal need no rewrite.
	for _, key := range se.supsByName[name] {
		en := se.sups[key]
		for _, c := range se.scopedCandidates(en.name) {
			if !en.rng.Satisfies(c.Matched) {
				continue
			}
			x := sat.Lit(se.vars[c.Pkg].vers[c.Index])
			if en.seen[x] {
				continue
			}
			en.seen[x] = true
			s.AddClause(x.Neg(), en.lit)
		}
	}

	// Provider selection: widen (or first-encode) the virtual's selection
	// clause. A "needed" variable killed at level 0 (every provider died)
	// is replaced — its activations are evicted via dirty anyway.
	if vv, ok := se.virts[name]; ok {
		if s.FixedFalse(sat.Lit(vv.needed)) {
			vv.needed = s.NewVar()
		}
		se.emitVirtualSelection(vv, se.scopedCandidates(name))
	} else if se.u.IsVirtual(name) {
		se.encodeVirtual(name)
	}

	// Parked declarations: consume the name's pending list and re-run each
	// site against the current universe (it re-parks itself if still
	// unemittable). Revival cascades can park duplicates, so sites dedup
	// by declaration identity.
	sites := se.pendingByName[name]
	if len(sites) == 0 {
		return
	}
	delete(se.pendingByName, name)
	seen := make(map[string]bool, len(sites))
	for _, site := range sites {
		k := siteKey(site.id)
		if seen[k] {
			continue
		}
		seen[k] = true
		s.DetachClause(site.ref)
		se.rerunDecl(site.id, push)
	}
}

// rerunDecl re-lowers one declaration, identified stably, against the
// current universe and variables. A declaring version whose variable died
// at level 0 (an unconditional unsatisfiable dependency became a unit
// axiom) cannot be revived in place: the whole version is resurrected,
// which re-runs all of its declarations including this one.
func (se *Session) rerunDecl(id declID, push func(string)) {
	pv, ok := se.vars[id.pkg]
	if !ok {
		return
	}
	idx := pv.pkg.IndexOf(id.ver)
	if idx < 0 {
		return
	}
	xi := sat.Lit(pv.vers[idx])
	if se.solver.FixedFalse(xi) {
		se.resurrectVersion(pv, idx, push)
		return
	}
	defs := pv.pkg.Versions()
	if id.conflict {
		c := defs[idx].Conflicts[id.idx]
		se.addRequirement(xi, id, c.When, c.Pkg, c.Range, true)
		return
	}
	dd := defs[idx].Deps[id.idx]
	se.addRequirement(xi, id, dd.When, dd.Pkg, dd.Range, false)
}

// resurrectVersion replaces one level-0-dead version variable with a fresh
// one and re-emits everything anchored on it: the x -> y implication, the
// package's widenable structure, and the version's declarations. The
// package name (so definition and support keys on it pick up the fresh
// variable) and the version's provided virtuals are pushed.
func (se *Session) resurrectVersion(pv *pkgVars, idx int, push func(string)) {
	s := se.solver
	if s.FixedFalse(sat.Lit(pv.installed)) {
		se.resurrectPackage(pv, push)
		return
	}
	x := s.NewVar()
	pv.vers[idx] = x
	s.AddClause(sat.Lit(x).Neg(), sat.Lit(pv.installed))
	se.emitPackageStructure(pv)
	se.encodeVersionReqs(pv, idx)
	push(pv.pkg.Name)
	for _, pr := range pv.pkg.Versions()[idx].Provides {
		push(pr.Virtual)
	}
}

// resurrectPackage rebuilds a package whose installed variable died at
// level 0 — which only happens when every version died, so every variable
// is reallocated. Sized from the universe's current definitions, it also
// covers delta versions not yet given slots. All requirements are re-run
// and every name that can reference the package's variables is pushed.
func (se *Session) resurrectPackage(pv *pkgVars, push func(string)) {
	s := se.solver
	s.DetachClause(pv.orRef)
	pv.orRef = sat.ClauseRef{}
	s.RemovePB(pv.amoRef)
	pv.amoRef = sat.PBRef{}
	pv.installed = s.NewVar()
	pv.vers = pv.vers[:0]
	for range pv.pkg.Versions() {
		x := s.NewVar()
		pv.vers = append(pv.vers, x)
		s.AddClause(sat.Lit(x).Neg(), sat.Lit(pv.installed))
	}
	se.emitPackageStructure(pv)
	for i := range pv.pkg.Versions() {
		se.encodeVersionReqs(pv, i)
	}
	push(pv.pkg.Name)
	for _, def := range pv.pkg.Versions() {
		for _, pr := range def.Provides {
			push(pr.Virtual)
		}
	}
}

// matchingLits enumerates the current in-scope candidate literals for a
// requirement key.
func (se *Session) matchingLits(name string, rng version.Range) []sat.Lit {
	var out []sat.Lit
	for _, c := range se.scopedCandidates(name) {
		if rng.Satisfies(c.Matched) {
			out = append(out, sat.Lit(se.vars[c.Pkg].vers[c.Index]))
		}
	}
	return out
}

// siteKey is the dedup identity of a declaration site.
func siteKey(id declID) string {
	kind := "d"
	if id.conflict {
		kind = "c"
	}
	return fmt.Sprintf("%s\x00%s\x00%s%d", id.pkg, id.ver.String(), kind, id.idx)
}
