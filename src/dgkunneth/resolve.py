"""Bounded-depth semi-free resolutions and the derived tensor isomorphism.

`semifree_resolve` builds P -> M stagewise: stage 0 adjoins free generators
mapping onto cocycle representatives that generate the cohomology as an
H^0(A)-module; each later stage kills the kernel of H(rho) at the current
boundary degree with generators one degree lower (module generators again:
killing a class kills its whole H^0(A)-orbit).  Every result is certified,
the empty resolution of an acyclic M too: H^i(rho) is an isomorphism for
i >= -depth + 1 and surjective at -depth, and sup(P) equals the top
nonzero cohomology degree of M.  A stage holds its classes as the columns
of one matrix, so it makes one product with rho, one with d^{t-1} and one
`solve` for all of them; a seeded variant takes its draws class by class
before those products.  The resolution keeps each stage as that run of
generators, its d(g) and rho(g) the columns of one matrix each, and
`lift_through_resolutions` solves once per run.  A resolution
depends on M, the depth, the variant and the cap only, so it is built and
certified once per distinct request over one field object and kept in the
field's memo (`linalg.memoized`): a request with an equal module from
another instance gets the same immutable resolution, whose `target` is the
module it was built for.

The derived tensor of (M, N) at top degree is realized as H^0(P (x)_A nG),
where mG and nG are M and N translated so their top classes sit at 0 and
smart-truncated there, and P resolves mG.  `theta_der` returns one
`DerivedKunnethWitness` per resolution and builds each object in it once:
theta(M, N) at the top class degrees holds mG, nG, their inclusions and
their H^0, and theta(P, nG) holds the tensor complex P (x)_A nG that
eta = rho (x) id reads; a theta(M, N) handed in at those degrees, such as
the plain battery's at the window tops, is used, not rebuilt.  A module
with top 0 is its own translate and truncation, so these share their cached
cohomology with mG, nG and P, and the naturality check moves a morphism's
maps onto mG and nG as the plain one does (`transported`).

Stage t adjoins generators of degree t - 1, and as A is nonpositive a
generator of degree e spans P only in degrees <= e.  So the stages t <= -d
leave P^{>=-d} final: P^i, the differential out of P^i and rho^i, i >= -d.
As P, nG and A live in degrees <= 0, a relation or a differential of
P (x)_A nG in degree t involves P^p only for p >= t.  The top H^0 and the
H^{-1} control of the `derived-kunneth` report read the degrees 0, -1 and
-2, so `DEPTH` = 2 computes both exactly, for every N.  The same argument
makes a deeper resolution that merely continues a shallower one equal to
it near the top, so the deeper resolutions the derived checks compare are
built from scratch with their own seeds (`deeper_witnesses`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .checks import CheckResult, DescentError, all_ok, failed, passed
from .dgalgebra import StructureError
from .dgmodule import (
    RIGHT,
    DGModule,
    FreeLayout,
    StrictMorphism,
    cohomology,
    cohomology_space,
    free_map_blocks,
    free_module,
    validate_module,
    validate_morphism,
)
from .field import Field
from .kunneth import KunnethWitness, cohomology_map, naturality_square, theta, transported
from .linalg import (
    Cohomology,
    Matrix,
    QuotientSpace,
    drop_zero_rows,
    from_blocks,
    kernel_basis,
    memoized,
    rank,
    rref,
    solve,
    vstack,
)
from .serialize import matrix_to_json
from .tensor import induced_balanced_map, tensor_map

GENERATOR_CAP = 64
# the depth of the variant-0 resolution `theta_der` builds
DEPTH = 2
# (seed, depth) of the two resolutions that `deeper_witnesses` builds next
# to the variant-0 one
DEEPER_RESOLUTIONS = ((1, 3), (2, 4))


class ResourceCapError(Exception):
    """A resolution grew past the per-degree generator cap."""


def cohomology_dim(m: DGModule, i: int) -> int:
    return (m.dim(i) - rank(m.diff_map(i))) - rank(m.diff_map(i - 1))


def sup_cohomology(m: DGModule):
    """Largest degree with nonzero cohomology, or None; ranks each d^i once."""
    out = 0
    for i in reversed(m.degrees()):
        into = rank(m.diff_map(i - 1))
        if m.dim(i) - out - into:
            return i
        out = into
    return None


def _top_class_degree(m: DGModule) -> int:
    """The first degree from the top with H^i(M) != 0, else the window top."""
    return next((i for i in reversed(m.degrees())
                 if cohomology_space(m.field, m.diff_map(i - 1), m.diff_map(i)).dim), m.window[1])


@dataclass(frozen=True)
class SemiFreeResolution:
    """rho: P -> M, free on staged generators, quasi-isomorphism to depth.
    `runs` holds one (degree e, stage, d(g), rho(g)) per run of generators
    in creation order: stage 0 has one run per degree with a class, a later
    stage one run.  d(g) are columns in P^{e+1}, None at stage 0, and rho(g)
    columns in M^e; `layout` is the free layout of these runs.  Frozen: one
    resolution serves every equal request over its field."""
    target: DGModule
    p: DGModule
    layout: FreeLayout
    rho: StrictMorphism
    depth: int
    runs: tuple

    def generator_count(self) -> int:
        return sum(n for _, n in self.layout.runs)


def _rand_unit(f: Field, rng):
    """A random nonzero scalar.  Over Q it is drawn from +-[2, 2^16]: when
    the top class is one generator this unit alone tells two variants apart."""
    if f.p:
        return rng.randrange(1, f.p)
    return f.of_int(rng.choice((1, -1)) * rng.randint(2, 2 ** 16))


def _module_generators(cands: Matrix, action: Matrix, ring_dim: int) -> Matrix:
    """Greedy H0(A)-module generating subset of the columns of `cands`,
    which span the space.

    Scanning the columns in order and keeping those outside the module span
    of the kept ones yields a set whose module span is the whole space.  The
    action is unital and associative, so a kept vector adds the span of its
    orbit (the vec . e_u); the span is kept row-reduced, and a vector lies in
    it when it equals the rows times its pivot entries.
    """
    span, pivots = Matrix.zeros(cands.field, 0, action.rows), []
    chosen = []
    for j in range(cands.cols):
        col = cands.columns([j])
        if span.transpose() @ col.rows_at(pivots) == col:
            continue
        chosen.append(j)
        # column u of the product is col . e_u
        red, pivots, _ = rref(vstack([span, action.times_kron_eye(col, ring_dim).transpose()]))
        span = drop_zero_rows(red)
    return cands.columns(chosen)


def _free_map(lay: FreeLayout, target: DGModule, images, i: int,
              degree_shift: int) -> Matrix:
    """Degree-i matrix of the equivariant map g.a |-> images[g].a into the right
    module target, with one image matrix per run of `lay` (`free_map_blocks`)."""
    blocks = free_map_blocks(lay, images, target.action_map, i, degree_shift)
    return from_blocks(target.field, target.dim(i + degree_shift), lay.dim(i), blocks)


def morphism_from_generator_images(p: DGModule, lay: FreeLayout, target: DGModule,
                                   images, degree_shift: int = 0) -> dict:
    """Matrices of the equivariant map g.a |-> images[g].a (right modules),
    with one image matrix per run of `lay`.

    With degree_shift = -1 this builds homotopy components P^i -> target^{i-1}.
    """
    return {i: _free_map(lay, target, images, i, degree_shift) for i in p.degrees()}


def _build_p_and_rho(algebra, target, runs):
    p, lay = free_module(algebra, RIGHT, [(e, w.cols) for e, _, _, w in runs],
                         [z for _, _, z, _ in runs])
    maps = morphism_from_generator_images(p, lay, target, [w for *_, w in runs])
    return p, lay, StrictMorphism(p, target, maps)


def semifree_resolve(m: DGModule, depth: int, variant: int = 0,
                     cap: int = GENERATOR_CAP) -> SemiFreeResolution:
    """Resolve a right module by a semi-free module, certified to `depth`.
    An equal earlier request over the same field object returns its
    resolution, and `target` may then be an equal module of another
    instance."""
    return _resolve(m.field, m, depth, variant, cap)


@memoized
def _resolve(f: Field, m: DGModule, depth: int, variant: int, cap: int) -> SemiFreeResolution:
    if m.side != RIGHT:
        raise StructureError("resolutions are built for right modules")
    if depth < 1:
        raise StructureError("depth must be >= 1")
    a = m.algebra
    rng = random.Random(f"resolve-variant:{variant}") if variant else None

    runs = []
    # stage 0: generators mapping onto module generators of the cohomology;
    # the first degree with a class, scanning down, is sup H(M)
    h0dim = a.h0().dim
    for i in reversed(m.degrees()):
        coh = cohomology(m, i)
        if coh.dim == 0:
            continue
        order = list(range(coh.dim))
        if rng is not None:
            rng.shuffle(order)
        cands = Matrix.identity(f, coh.dim).columns(order)
        reps = coh.rep_map @ _module_generators(cands, coh.h0_action, h0dim)
        if rng is not None:
            # each class draws its unit c, then w: rep -> c rep + d(w)
            units, ws = [], []
            for _ in range(reps.cols):
                units.append(_rand_unit(f, rng))
                ws.append(f.random_vector(rng, m.dim(i - 1)))
            dw = m.diff_map(i - 1) @ Matrix(f, len(ws), m.dim(i - 1), ws).transpose()
            reps = reps.scale(units) + dw
        runs.append((i, 0, None, reps))
    # an acyclic M gets no generators and no stages, and is certified too
    sup_h = runs[0][0] if runs else -depth
    p, lay, rho = _build_p_and_rho(a, m, runs)
    # stage sup_h + 1 - t kills ker H^t(rho), going down from the top
    for t in range(sup_h, -depth, -1):
        hp = cohomology(p, t)
        hm = cohomology(m, t)
        ker = kernel_basis(cohomology_map(rho, hp, hm)).transpose()
        if ker.cols == 0:
            continue
        if rng is not None:
            order = list(range(ker.cols))
            rng.shuffle(order)
            ker = ker.columns(order).scale([_rand_unit(f, rng) for _ in order])
        # killing a class also kills its whole H0(A)-orbit, so module
        # generators of the kernel suffice
        z = hp.rep_map @ _module_generators(ker, hp.h0_action, h0dim)   # cocycles in P^t
        dm = m.diff_map(t - 1)
        if rng is not None:
            # each class draws its w, then one coefficient per kernel vector
            # of d^{t-1}: z -> z + d(w) and its preimage -> preimage + kernel
            kw = kernel_basis(dm).transpose()
            ws, coeffs = [], []
            for _ in range(z.cols):
                ws.append(f.random_vector(rng, p.dim(t - 1)))
                coeffs.append(f.random_vector(rng, kw.cols))
            z = z + p.diff_map(t - 1) @ Matrix(f, len(ws), p.dim(t - 1), ws).transpose()
        w = solve(dm, rho.map_at(t) @ z)
        if w is None:
            raise StructureError(f"kernel class not killable at degree {t}")
        if rng is not None:
            w = w + kw @ Matrix(f, len(coeffs), kw.cols, coeffs).transpose()
        runs.append((t - 1, sup_h + 1 - t, z, w))
        lay_next = FreeLayout(a, tuple((e, x.cols) for e, _, _, x in runs))
        worst = max(lay_next.dim(i) for i in lay_next.degrees())
        if worst > cap:
            raise ResourceCapError(
                f"per-degree dimension {worst} exceeds the generator cap {cap}")
        p, lay, rho = _build_p_and_rho(a, m, runs)

    res = SemiFreeResolution(m, p, lay, rho, depth, tuple(runs))
    _certify_resolution(res)
    return res


def _certify_resolution(res: SemiFreeResolution):
    m, p, rho = res.target, res.p, res.rho
    bad = validate_module(p)
    if bad:
        raise StructureError(f"resolution is not a DG module: {bad[0]}")
    bad = validate_morphism(rho)
    if bad:
        raise StructureError(f"resolution map is not strict: {bad[0]}")
    sup_h = sup_cohomology(m)
    if sup_h is not None:
        top = max((e for e, *_ in res.runs), default=None)
        if top != sup_h:
            raise StructureError("sup(P) differs from sup(H(M))")
    # H^t(P) and H^t(M) vanish where P^t and M^t do
    for t in sorted({*p.degrees(), *m.degrees()}, reverse=True):
        if t < -res.depth:
            break
        hp, hm = cohomology(p, t), cohomology(m, t)
        r = rank(cohomology_map(rho, hp, hm))
        surjective, injective = r == hm.dim, r == hp.dim
        if t >= -res.depth + 1 and not (surjective and injective):
            raise StructureError(f"H^{t}(rho) is not an isomorphism")
        if t == -res.depth and not surjective:
            raise StructureError(f"H^{t}(rho) is not surjective")


# ---------------------------------------------------------------------------
# Derived tensor at the top degree


@dataclass
class DerivedKunnethWitness:
    """theta_der on one resolution rho: P -> mG, with its evidence.

    `mn` = theta(M, N) at the top class degrees i0 and j0 holds M and N,
    mG and nG (M and N translated by i0 and j0 and smart-truncated at 0)
    as `mn.mT` and `mn.nT` with their inclusions, and the H^0 bases the
    naturality check reads; `plain` = theta(P, nG) holds P (x)_A nG as
    `plain.tc`.  The depth is `resolution.depth`."""
    resolution: SemiFreeResolution
    plain: KunnethWitness            # theta for (P, nG)
    mn: KunnethWitness               # theta for (M, N) at (i0, j0)
    source: QuotientSpace            # H^{i0}(M) (x)_{H0(A)} H^{j0}(N)
    target: Cohomology               # H^0(P (x) N)
    theta_der: Matrix
    eta_h0: Matrix                   # H^0(rho (x) id_N)
    evidence: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all_ok(self.evidence)


def theta_der(m: DGModule, n: DGModule,
              mn: KunnethWitness | None = None) -> DerivedKunnethWitness:
    """The derived top-degree isomorphism with its commuting-triangle
    evidence, on a resolution of depth `DEPTH` of the mG of theta(M, N) at
    the top degrees with cohomology (dim H^i read through the memo), else the
    window tops: `mn` where it is that theta of these very M and N, else one
    built here.  The transport and the triangle of every resolution read it."""
    i0, j0 = _top_class_degree(m), _top_class_degree(n)
    if mn is None or not (mn.m is m and mn.n is n and (mn.i0, mn.j0) == (i0, j0)):
        mn = theta(m, n, i0, j0)
    return _theta_der_on(semifree_resolve(mn.mT, DEPTH), mn)


def _theta_der_on(res: SemiFreeResolution, wMN: KunnethWitness) -> DerivedKunnethWitness:
    """The per-resolution half of `theta_der`: theta_der on `res`, a
    resolution of wMN.mT, stated on the bases of `wMN` = theta(M, N)."""
    nG = wMN.nT
    f = nG.field
    evidence = []

    plain = theta(res.p, nG, i0=0, j0=0)
    evidence.extend(plain.evidence)

    hmg, source = wMN.hm, wMN.source
    hrho = cohomology_map(res.rho, plain.hm, hmg)
    try:
        emat = induced_balanced_map(plain.source, source, hrho,
                                    Matrix.identity(f, plain.hn.dim))
    except DescentError as exc:
        evidence.append(failed("transport_well_defined",
                               counterexample={"reason": str(exc)}))
        emat = Matrix.zeros(f, source.dim, plain.source.dim)
    einv = solve(emat, Matrix.identity(f, source.dim)) \
        if emat.rows == emat.cols else None
    # a failed transport zeroes theta_der: the two checks after it name it as cause
    cause = {"cause": "h0_rho_transport_invertible"} if einv is None else {}
    if einv is None:
        evidence.append(failed("h0_rho_transport_invertible",
                               counterexample={"rows": emat.rows, "cols": emat.cols,
                                               "rank": rank(emat)}))
        th_der = Matrix.zeros(f, plain.target.dim, source.dim)
    else:
        evidence.append(passed("h0_rho_transport_invertible", dim=source.dim))
        th_der = plain.theta @ einv

    r = rank(th_der)
    if source.dim == plain.target.dim and r == source.dim:
        evidence.append(passed("theta_der_bijective", rank=r))
    else:
        evidence.append(failed("theta_der_bijective",
                               counterexample={"rank": r, "source_dim": source.dim,
                                               "target_dim": plain.target.dim, **cause}))

    # eta at top degree and the commuting triangle against the plain theta
    tcMN, hMN = wMN.tc, wMN.target
    try:
        qmap = tensor_map(plain.tc, tcMN, res.rho.map_at,
                          StrictMorphism.identity(nG).map_at, 0)
        eta_h0 = hMN.class_map @ qmap @ plain.target.rep_map
    except DescentError as exc:
        # a zero eta fails the triangle too, which names the first cause
        evidence.append(failed("eta_descends", counterexample={"reason": str(exc)}))
        eta_h0 = Matrix.zeros(f, hMN.dim, plain.target.dim)
        cause = cause or {"cause": "eta_descends"}

    evidence.extend(r for r in wMN.evidence if not r.ok)
    if eta_h0 @ th_der == wMN.theta:
        evidence.append(passed("derived_diagram_commutes", dim=source.dim))
    else:
        evidence.append(failed("derived_diagram_commutes",
                               counterexample={"eta_theta_der": matrix_to_json(eta_h0 @ th_der),
                                               "theta": matrix_to_json(wMN.theta), **cause}))
    return DerivedKunnethWitness(res, plain, wMN, source, plain.target, th_der, eta_h0, evidence)


def deeper_witnesses(w: DerivedKunnethWitness) -> list:
    """theta_der on the resolutions of `DEEPER_RESOLUTIONS`: variant 1 at
    depth 3 and variant 2 at depth 4, each resolving `w`'s mG from scratch
    with its own seed and certified in full; theta(M, N) is `w.mn`.  Both
    derived checks compare these two against `w`."""
    return [_theta_der_on(semifree_resolve(w.mn.mT, depth, variant=v), w.mn)
            for v, depth in DEEPER_RESOLUTIONS]


def check_depth_stabilization(w: DerivedKunnethWitness, deeper: list) -> CheckResult:
    """Deeper resolutions change nothing at the top: equal dims and equal
    composites into H^{i0+j0}(M (x) N).

    `w` is the variant-0 `theta_der` witness at depth `DEPTH`, and `deeper`
    is `deeper_witnesses(w)`; witnesses at other depths raise ValueError.
    """
    depths = [DEPTH, *(d for _, d in DEEPER_RESOLUTIONS)]
    ws = [w, *deeper]
    got = [x.resolution.depth for x in ws]
    if got != depths:
        raise ValueError(f"stabilization needs witnesses at depths {depths}, got {got}")
    for d, wd in zip(depths, ws):
        if not wd.ok:
            return failed("depth_stabilization",
                          counterexample={"depth": d,
                                          "failures": [r.name for r in wd.evidence if not r.ok]})
    # theta_der sits on each resolution's own basis of H^0(P (x) N); the
    # composite into H^{i0+j0}(M (x) N) does not
    dims = [wd.target.dim for wd in ws]
    composites = [wd.eta_h0 @ wd.theta_der for wd in ws]
    if len(set(dims)) == 1 and all(c == composites[0] for c in composites[1:]):
        return passed("depth_stabilization", depths=depths, dim=dims[0])
    return failed("depth_stabilization",
                  counterexample={"depths": depths, "dims": dims})


def check_resolution_independence(deeper: list) -> CheckResult:
    """Two independently seeded resolutions give the same composite into
    H^{i0+j0}(M (x) N).

    `deeper` is `deeper_witnesses(w)`: variants 1 and 2, each resolved from
    scratch with its own seed.
    """
    variants = [v for v, _ in DEEPER_RESOLUTIONS]
    for v, wv in zip(variants, deeper):
        if not wv.ok:
            return failed("resolution_independence",
                          counterexample={"variant": v,
                                          "failures": [r.name for r in wv.evidence if not r.ok]})
    composites = [wv.eta_h0 @ wv.theta_der for wv in deeper]
    if all(c == composites[0] for c in composites[1:]):
        return passed("resolution_independence", variants=variants)
    return failed("resolution_independence",
                  counterexample={"variants": variants,
                                  "composites": [matrix_to_json(c) for c in composites]})


# ---------------------------------------------------------------------------
# Functoriality via lifts through resolutions


@dataclass
class ResolutionLift:
    phi: StrictMorphism      # P -> P'
    homotopy: dict           # i -> Matrix P^i -> M'^{i-1} with rho' phi - f rho = dh + hd
    evidence: list


def lift_through_resolutions(res: SemiFreeResolution, resp: SemiFreeResolution,
                             fmor: StrictMorphism) -> ResolutionLift:
    """phi: P -> P' with rho' o phi homotopic to f o rho, built run by run
    by solving the joint chain/comparison linear system once per run: the
    d(g) of a run involve only generators of higher degree, lifted before."""
    f = res.p.field
    p, pp = res.p, resp.p
    mprime = resp.target
    evidence = []
    phi_imgs = []
    h_imgs = []

    first = 0
    for e, stage, z, w in res.runs:
        # phi and h on d(g), from the runs already lifted; d(g) = 0 at stage 0
        y = Matrix.zeros(f, pp.dim(e + 1), w.cols)
        u = fmor.map_at(e) @ w
        if z is not None:
            y = _free_map(res.layout, pp, phi_imgs, e + 1, 0) @ z
            u = u + _free_map(res.layout, mprime, h_imgs, e + 1, -1) @ z
        top = pp.diff_map(e)
        bot_l = resp.rho.map_at(e)
        bot_r = -mprime.diff_map(e - 1)
        n_x, n_h = pp.dim(e), mprime.dim(e - 1)
        big = from_blocks(f, top.rows + bot_l.rows, n_x + n_h,
                          [(0, 0, top.arr), (top.rows, 0, bot_l.arr),
                           (top.rows, n_x, bot_r.arr)])
        rhs = vstack([y, u])
        sol = solve(big, rhs)
        if sol is None:
            # the first generator of the run whose own system has no solution
            g = next(j for j in range(rhs.cols) if solve(big, rhs.columns([j])) is None)
            evidence.append(failed("lift_solvable",
                                   counterexample={"generator": first + g, "degree": e,
                                                   "stage": stage}))
            return ResolutionLift(StrictMorphism.zero(p, pp), {}, evidence)
        phi_imgs.append(sol.rows_at(slice(n_x)))
        h_imgs.append(sol.rows_at(slice(n_x, None)))
        first += w.cols
    evidence.append(passed("lift_solvable", generators=first))

    phi_maps = morphism_from_generator_images(p, res.layout, pp, phi_imgs)
    phi = StrictMorphism(p, pp, phi_maps)
    bad = validate_morphism(phi)
    if bad:
        evidence.append(failed("lift_strict", counterexample={"violation": str(bad[0])}))
    else:
        evidence.append(passed("lift_strict"))
    homotopy = morphism_from_generator_images(p, res.layout, mprime, h_imgs,
                                              degree_shift=-1)
    # rho' phi - f rho = d o h + h o d degreewise
    ok = True
    for i in p.degrees():
        delta = resp.rho.map_at(i) @ phi.map_at(i) - \
            fmor.map_at(i) @ res.rho.map_at(i)
        h_i = homotopy.get(i, Matrix.zeros(f, mprime.dim(i - 1), p.dim(i)))
        h_i1 = homotopy.get(i + 1, Matrix.zeros(f, mprime.dim(i), p.dim(i + 1)))
        rhs = mprime.diff_map(i - 1) @ h_i + h_i1 @ p.diff_map(i)
        if delta != rhs:
            ok = False
            evidence.append(failed("lift_homotopy_identity", counterexample={"degree": i}))
            break
    if ok:
        evidence.append(passed("lift_homotopy_identity"))
    return ResolutionLift(phi, homotopy, evidence)


def check_theta_der_functoriality(fm: StrictMorphism, gm: StrictMorphism,
                                  w: DerivedKunnethWitness,
                                  wp: DerivedKunnethWitness) -> list:
    """Naturality of theta_der along strict morphisms, with the derived map
    realized by a lift through the two resolutions.

    `w` and `wp` are the witnesses of the sources and of the targets at one
    depth, built once by the caller (rebuilding them would repeat the same
    resolution); the lift, the induced maps and both sides of the square are
    computed per pair.  Witnesses that do not match the morphisms raise
    ValueError, and a map off the degree-0 cocycles StructureError."""
    res, resp = w.resolution, wp.resolution
    if resp.depth != res.depth:
        raise ValueError("functoriality witnesses have different depths")
    fG, gG = transported(fm, gm, w.mn, wp.mn)
    lift = lift_through_resolutions(res, resp, fG)
    return naturality_square("theta_der_naturality", w, wp, (fG, gG, w.mn, wp.mn),
                             (w.plain.tc, wp.plain.tc), (lift.phi.map_at, gG.map_at),
                             (w.theta_der, wp.theta_der), lift.evidence,
                             source_dim=w.source.dim)
