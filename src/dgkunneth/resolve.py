"""Bounded-depth semi-free resolutions and the derived tensor isomorphism.

`semifree_resolve` builds P -> M stagewise: stage 0 adjoins free generators
mapping onto cocycle representatives that generate the cohomology as an
H^0(A)-module; each later stage kills the kernel of H(rho) at the current
boundary degree with generators one degree lower (module generators again:
killing a class kills its whole H^0(A)-orbit).  The result is certified:
H^i(rho) is an isomorphism for i >= -depth + 1 and surjective at -depth,
and sup(P) equals the top nonzero cohomology degree of M.

The derived tensor of (M, N) at top degree is realized as H^0(P (x)_A N)
after translating tops to zero and smart-truncating; a resolution of depth
width(N) + 2 already computes it exactly, because the tensor degrees 0 and
-1 only see P in degrees >= -1 - width(N) and later stages never modify
degrees already built.  `check_depth_stabilization` re-certifies that per
instance, reusing the battery's witness at its own depth and building the
deeper ones separately.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace

from .checks import CheckResult, DescentError, all_ok, failed, passed
from .dgalgebra import StructureError
from .dgmodule import (
    RIGHT,
    DGModule,
    FreeLayout,
    StrictMorphism,
    cohomology,
    free_module,
    shift,
    shift_morphism,
    smart_truncate,
    truncate_morphism,
    validate_module,
    validate_morphism,
)
from .field import Field
from .kunneth import KunnethWitness, cohomology_map, theta
from .linalg import Matrix, kernel_basis, rank, solve
from .tensor import (
    BalancedTensorSpace,
    CohomologySpace,
    TensorComplex,
    induced_balanced_map,
    tensor_cohomology,
    tensor_map,
)

GENERATOR_CAP = 64


class ResourceCapError(Exception):
    """A resolution grew past the per-degree generator cap."""


def cohomology_dim(m: DGModule, i: int) -> int:
    return (m.dim(i) - rank(m.diff_map(i))) - rank(m.diff_map(i - 1))


def sup_cohomology(m: DGModule):
    """Largest degree with nonzero cohomology, or None."""
    for i in range(m.window[1], m.window[0] - 1, -1):
        if cohomology_dim(m, i):
            return i
    return None


@dataclass
class SemiFreeResolution:
    """rho: P -> M, free on staged generators, quasi-isomorphism to depth."""
    target: DGModule
    p: DGModule
    layout: FreeLayout
    rho: StrictMorphism
    depth: int
    gen_degrees: list
    gen_stages: list
    gen_diffs: list           # d(g) as coordinates in P^{deg+1}
    gen_images: list          # rho(g) as coordinates in M^{deg}

    def generator_count(self) -> int:
        return len(self.gen_degrees)


def _rand_unit(f: Field, rng):
    if f.is_prime_field:
        return rng.randrange(1, f.p)
    return f.of_int(rng.choice([1, -1, 2, -2]))


def _module_generators(candidates, action: Matrix, ring_dim: int, f: Field):
    """Greedy H0(A)-module generating subset of a spanning set of class vectors.

    Scanning candidates in order and keeping those outside the module span of
    the kept ones yields a set whose module span is the whole space.
    """
    if not candidates:
        return []
    dim = len(candidates[0])
    span_rows = []
    span_rank = 0

    def try_add(vec):
        nonlocal span_rank
        if not any(x != f.zero for x in vec):
            return False
        stacked = Matrix(f, len(span_rows) + 1, dim, span_rows + [vec])
        r = rank(stacked)
        if r > span_rank:
            span_rows.append(vec)
            span_rank = r
            return True
        return False

    def orbit(vec):
        return [action.apply([a if t == u else f.zero for a in vec for t in range(ring_dim)])
                for u in range(ring_dim)]

    chosen = []
    for cand in candidates:
        if not try_add(cand):
            continue
        chosen.append(cand)
        frontier = orbit(cand)
        while frontier:
            v = frontier.pop()
            if try_add(v):
                frontier.extend(orbit(v))
    return chosen


def _free_image(target: DGModule, e: int, b: int, i: int, img,
                degree_shift: int) -> list:
    """The image in target^{i+degree_shift} of the free basis element g.b
    (g of degree e, b the b-th basis vector of A^{i-e}) under g |-> img:
    the sum over u of img[u] * act.col(u * dim A^{i-e} + b)."""
    f = target.field
    vec = [f.zero] * target.dim(i + degree_shift)
    if not any(x != f.zero for x in img):
        return vec
    act = target.action_map(e + degree_shift, i - e)
    da = target.algebra.dim(i - e)
    for u, x in enumerate(img):
        if x == f.zero:
            continue
        for r, v in enumerate(act.col(u * da + b)):
            if v != f.zero:
                vec[r] = f.add(vec[r], f.mul(x, v))
    return vec


def morphism_from_generator_images(p: DGModule, lay: FreeLayout, target: DGModule,
                                   images, degree_shift: int = 0) -> dict:
    """Matrices of the equivariant map g.a |-> images[g].a (right modules).

    With degree_shift = -1 this builds homotopy components P^i -> target^{i-1}.
    """
    f = p.field
    maps = {}
    for i in p.degrees():
        if p.dim(i) == 0:
            continue
        out = Matrix.zeros(f, target.dim(i + degree_shift), p.dim(i))
        for pos, (g, b) in enumerate(lay.basis(i)):
            vec = _free_image(target, lay.gen_degrees[g], b, i, images[g], degree_shift)
            for r, v in enumerate(vec):
                out.data[r][pos] = v
        maps[i] = out
    return maps


def _build_p_and_rho(algebra, target, gen_degrees, gen_diffs, gen_images):
    p, lay = free_module(algebra, RIGHT, gen_degrees, gen_diffs)
    maps = morphism_from_generator_images(p, lay, target, gen_images)
    rho = StrictMorphism(p, target, maps)
    return p, lay, rho


def semifree_resolve(m: DGModule, depth: int, variant: int = 0,
                     cap: int = GENERATOR_CAP) -> SemiFreeResolution:
    """Resolve a right module by a semi-free module, certified to `depth`."""
    if m.side != RIGHT:
        raise StructureError("resolutions are built for right modules")
    if depth < 1:
        raise StructureError("depth must be >= 1")
    f = m.field
    a = m.algebra
    rng = random.Random(f"resolve-variant:{variant}") if variant else None

    gen_degrees, gen_stages, gen_diffs, gen_images = [], [], [], []
    sup_h = sup_cohomology(m)
    if sup_h is None:
        p, lay, rho = _build_p_and_rho(a, m, [], [], [])
        return SemiFreeResolution(m, p, lay, rho, depth, [], [], [], [])

    # stage 0: generators mapping onto module generators of the cohomology
    h0dim = a.h0().dim
    for i in range(sup_h, m.window[0] - 1, -1):
        coh = cohomology(m, i)
        if coh.dim == 0:
            continue
        cands = [[f.one if t == v else f.zero for t in range(coh.dim)]
                 for v in range(coh.dim)]
        if rng is not None:
            rng.shuffle(cands)
        classes = _module_generators(cands, coh.h0_action, h0dim, f)
        for cls in classes:
            repv = coh.rep_map.apply(cls)
            if rng is not None:
                c = _rand_unit(f, rng)
                w = f.random_vector(rng, m.dim(i - 1))
                dw = m.diff_map(i - 1).apply(w)
                repv = [f.add(f.mul(c, x), y) for x, y in zip(repv, dw)]
            gen_degrees.append(i)
            gen_stages.append(0)
            gen_images.append(repv)
            gen_diffs.append([])

    p, lay, rho = _build_p_and_rho(a, m, gen_degrees, gen_diffs, gen_images)
    # later stages: kill ker H^t(rho) going down from the top
    stage = 0
    for t in range(sup_h, -depth, -1):
        stage += 1
        hp = cohomology(p, t)
        hm = cohomology(m, t)
        hrho = cohomology_map(rho, hp, hm)
        ker = kernel_basis(hrho)
        if ker.rows == 0:
            continue
        rows = [ker.row(r) for r in range(ker.rows)]
        if rng is not None:
            rng.shuffle(rows)
            scaled = []
            for row in rows:
                c = _rand_unit(f, rng)
                scaled.append([f.mul(c, x) for x in row])
            rows = scaled
        # killing a class also kills its whole H0(A)-orbit, so module
        # generators of the kernel suffice
        rows = _module_generators(rows, hp.h0_action, h0dim, f)
        for row in rows:
            z = hp.rep_map.apply(row)                  # cocycle in P^t
            if rng is not None:
                w = f.random_vector(rng, p.dim(t - 1))
                dw = p.diff_map(t - 1).apply(w)
                z = [f.add(x, y) for x, y in zip(z, dw)]
            rz = rho.map_at(t).apply(z)
            sol = solve(m.diff_map(t - 1), Matrix.column(f, rz))
            if sol is None:
                raise StructureError(f"kernel class not killable at degree {t}")
            w = sol.col(0)
            if rng is not None:
                kw = kernel_basis(m.diff_map(t - 1))
                for krow in kw.data:
                    c = f.random_vector(rng, 1)[0]
                    if c != f.zero:
                        w = [f.add(x, f.mul(c, y)) for x, y in zip(w, krow)]
            gen_degrees.append(t - 1)
            gen_stages.append(stage)
            gen_diffs.append(z)
            gen_images.append(w)
        lay_next = FreeLayout(a, tuple(gen_degrees))
        lo, hi = lay_next.window()
        worst = max(lay_next.dim(i) for i in range(lo, hi + 1))
        if worst > cap:
            raise ResourceCapError(
                f"per-degree dimension {worst} exceeds the generator cap {cap}")
        p, lay, rho = _build_p_and_rho(a, m, gen_degrees, gen_diffs, gen_images)

    res = SemiFreeResolution(m, p, lay, rho, depth, gen_degrees, gen_stages,
                             gen_diffs, gen_images)
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
        top = max((e for e in res.gen_degrees), default=None)
        if top != sup_h:
            raise StructureError("sup(P) differs from sup(H(M))")
    for t in range(max(p.window[1], m.window[1]), -res.depth - 1, -1):
        hp, hm = cohomology(p, t), cohomology(m, t)
        hrho = cohomology_map(rho, hp, hm)
        surjective = rank(hrho) == hm.dim
        injective = rank(hrho) == hp.dim
        if t >= -res.depth + 1 and not (surjective and injective):
            raise StructureError(f"H^{t}(rho) is not an isomorphism")
        if t == -res.depth and not surjective:
            raise StructureError(f"H^{t}(rho) is not surjective")


# ---------------------------------------------------------------------------
# Derived tensor at the top degree


@dataclass
class DerivedSetup:
    i0: int
    j0: int
    mG: DGModule          # genuine translated right module, top 0
    nG: DGModule          # genuine translated left module, top 0
    width: int
    depth: int
    resolution: SemiFreeResolution
    tc: TensorComplex     # P (x)_A nG


def derived_setup(m: DGModule, n: DGModule, depth: int | None = None,
                  variant: int = 0, i0: int | None = None,
                  j0: int | None = None) -> DerivedSetup:
    if i0 is None:
        i0 = sup_cohomology(m)
        i0 = m.window[1] if i0 is None else i0
    if j0 is None:
        j0 = sup_cohomology(n)
        j0 = n.window[1] if j0 is None else j0
    mG = smart_truncate(shift(m, i0), 0)
    nG = smart_truncate(shift(n, j0), 0)
    width = 0 - nG.window[0]
    d = depth if depth is not None else width + 2
    res = semifree_resolve(mG, d, variant=variant)
    tc = TensorComplex(res.p, nG)
    return DerivedSetup(i0, j0, mG, nG, width, d, res, tc)


def derived_tensor_top(m: DGModule, n: DGModule, depth: int | None = None):
    """H^{i0+j0}(M (x)^L_A N) realized as H^0(P (x)_A N).

    Returns (CohomologySpace, DerivedSetup); lower degrees of the same
    presentation are available through the setup's tensor complex.
    """
    setup = derived_setup(m, n, depth)
    return tensor_cohomology(setup.tc, 0), setup


@dataclass
class DerivedKunnethWitness:
    """theta_der with its evidence.  `mn` carries the bases it is stated on
    (H^0 of mG and nG), which the naturality check reads, not recomputes."""
    setup: DerivedSetup
    plain: KunnethWitness            # theta for (P, N)
    mn: KunnethWitness               # theta for (mG, nG)
    source: BalancedTensorSpace      # H^{i0}(M) (x)_{H0(A)} H^{j0}(N)
    target: CohomologySpace          # H^0(P (x) N)
    theta_der: Matrix
    eta_h0: Matrix                   # H^0(rho (x) id_N)
    evidence: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all_ok(self.evidence)


def theta_der(m: DGModule, n: DGModule, depth: int | None = None,
              variant: int = 0, i0: int | None = None,
              j0: int | None = None) -> DerivedKunnethWitness:
    """The derived top-degree isomorphism with its commuting-triangle evidence."""
    setup = derived_setup(m, n, depth, variant, i0, j0)
    res, nG, mG = setup.resolution, setup.nG, setup.mG
    f = m.field
    evidence = []

    plain = theta(res.p, nG, i0=0, j0=0)
    evidence.extend(plain.evidence)
    # theta for (mG, nG): its H^0(mG), source, tensor complex and H^0 are
    # also the ones the transport and the triangle below need
    wMN = theta(mG, nG, i0=0, j0=0)

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
                                               "target_dim": plain.target.dim}))

    # eta at top degree and the commuting triangle against the plain theta
    tcMN, hMN = wMN.tc, wMN.target
    ident_n = {i: Matrix.identity(f, nG.dim(i)) for i in nG.degrees()}

    def nmaps(q):
        return ident_n.get(q, Matrix.zeros(f, nG.dim(q), nG.dim(q)))

    try:
        qmap = tensor_map(setup.tc, tcMN, res.rho.map_at, nmaps, 0)
        eta_h0 = hMN.class_map @ qmap @ plain.target.rep_map
    except DescentError as exc:
        evidence.append(failed("eta_descends", counterexample={"reason": str(exc)}))
        eta_h0 = Matrix.zeros(f, hMN.dim, plain.target.dim)

    evidence.extend(r for r in wMN.evidence if not r.ok)
    if eta_h0 @ th_der == wMN.theta:
        evidence.append(passed("derived_diagram_commutes", dim=source.dim))
    else:
        evidence.append(failed("derived_diagram_commutes",
                               counterexample={"eta_theta_der": _strs(eta_h0 @ th_der),
                                               "theta": _strs(wMN.theta)}))
    return DerivedKunnethWitness(setup, plain, wMN, source, plain.target, th_der,
                                 eta_h0, evidence)


def _strs(mat: Matrix):
    return [[mat.field.to_str(x) for x in row] for row in mat.data]


def check_depth_stabilization(m: DGModule, n: DGModule,
                              w: DerivedKunnethWitness) -> CheckResult:
    """Deeper resolutions change nothing at the top: equal dims, equal matrices.

    `w` is the variant-0 `theta_der` witness of (m, n) already built; it
    is reused at its own depth and theta_der is built afresh at each other
    depth of width+2..width+4.  Every depth still has its own resolution,
    so the comparison between depths stays a real one.
    """
    width = w.setup.width
    depths = [width + 2, width + 3, width + 4]
    dims, mats = [], []
    for d in depths:
        wd = w if d == w.setup.depth else \
            theta_der(m, n, depth=d, i0=w.setup.i0, j0=w.setup.j0)
        if not wd.ok:
            return failed("depth_stabilization",
                          counterexample={"depth": d,
                                          "failures": [r.name for r in wd.evidence if not r.ok]})
        dims.append(wd.target.dim)
        mats.append(wd.theta_der)
    if len(set(dims)) == 1 and all(mm == mats[0] for mm in mats[1:]):
        return passed("depth_stabilization", depths=depths, dim=dims[0])
    return failed("depth_stabilization",
                  counterexample={"depths": depths, "dims": dims})


def check_resolution_independence(m: DGModule, n: DGModule,
                                  variants=(1, 2)) -> CheckResult:
    """Two independently seeded resolutions give the same composite into
    H^{i0+j0}(M (x) N)."""
    composites = []
    for v in variants:
        w = theta_der(m, n, variant=v)
        if not w.ok:
            return failed("resolution_independence",
                          counterexample={"variant": v,
                                          "failures": [r.name for r in w.evidence if not r.ok]})
        composites.append(w.eta_h0 @ w.theta_der)
    if all(c == composites[0] for c in composites[1:]):
        return passed("resolution_independence", variants=list(variants))
    return failed("resolution_independence",
                  counterexample={"variants": list(variants),
                                  "composites": [_strs(c) for c in composites]})


# ---------------------------------------------------------------------------
# Functoriality via lifts through resolutions


@dataclass
class ResolutionLift:
    phi: StrictMorphism      # P -> P'
    homotopy: dict           # i -> Matrix P^i -> M'^{i-1} with rho' phi - f rho = dh + hd
    evidence: list


def lift_through_resolutions(res: SemiFreeResolution, resp: SemiFreeResolution,
                             fmor: StrictMorphism) -> ResolutionLift:
    """phi: P -> P' with rho' o phi homotopic to f o rho, built generator by
    generator by solving the joint chain/comparison linear system."""
    f = res.p.field
    p, pp = res.p, resp.p
    mprime = resp.target
    evidence = []
    phi_imgs = []
    h_imgs = []

    def apply_free(images, vec, t, target, degree_shift):
        out = [f.zero] * target.dim(t + degree_shift)
        for pos, (g, b) in enumerate(res.layout.basis(t)):
            x = vec[pos]
            if x == f.zero:
                continue
            col = _free_image(target, res.gen_degrees[g], b, t, images[g], degree_shift)
            for r, v in enumerate(col):
                if v != f.zero:
                    out[r] = f.add(out[r], f.mul(x, v))
        return out

    for g, e in enumerate(res.gen_degrees):
        z = res.gen_diffs[g] or [f.zero] * p.dim(e + 1)
        y = apply_free(phi_imgs, z, e + 1, pp, 0)
        u = fmor.map_at(e).apply(res.gen_images[g])
        hz = apply_free(h_imgs, z, e + 1, mprime, -1)
        rhs = y + [f.add(a, b) for a, b in zip(u, hz)]
        top = pp.diff_map(e)
        bot_l = resp.rho.map_at(e)
        bot_r = -mprime.diff_map(e - 1)
        n_x, n_h = pp.dim(e), mprime.dim(e - 1)
        big = Matrix.zeros(f, top.rows + bot_l.rows, n_x + n_h)
        for r in range(top.rows):
            big.data[r][:n_x] = list(top.data[r])
        for r in range(bot_l.rows):
            big.data[top.rows + r][:n_x] = list(bot_l.data[r])
            big.data[top.rows + r][n_x:] = list(bot_r.data[r])
        sol = solve(big, Matrix.column(f, rhs))
        if sol is None:
            evidence.append(failed("lift_solvable",
                                   counterexample={"generator": g, "degree": e,
                                                   "stage": res.gen_stages[g]}))
            return ResolutionLift(StrictMorphism.zero(p, pp), {}, evidence)
        col = sol.col(0)
        phi_imgs.append(col[:n_x])
        h_imgs.append(col[n_x:])
    evidence.append(passed("lift_solvable", generators=len(res.gen_degrees)))

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
    ValueError."""
    s, sp = w.setup, wp.setup
    if (sp.i0, sp.j0, sp.depth) != (s.i0, s.j0, s.depth):
        raise ValueError("functoriality witnesses have different bounds or depths")
    fG = truncate_morphism(shift_morphism(fm, s.i0), 0)
    gG = truncate_morphism(shift_morphism(gm, s.j0), 0)
    if (fG.source, fG.target, gG.source, gG.target) != (s.mG, sp.mG, s.nG, sp.nG):
        raise ValueError("functoriality witnesses do not match the morphisms")
    out = [replace(r) for r in w.evidence + wp.evidence if not r.ok]

    lift = lift_through_resolutions(s.resolution, sp.resolution, fG)
    out.extend(lift.evidence)
    if not all_ok(lift.evidence):
        return out

    hf = cohomology_map(fG, w.mn.hm, wp.mn.hm)
    hg = cohomology_map(gG, w.mn.hn, wp.mn.hn)
    try:
        src_map = induced_balanced_map(w.source, wp.source, hf, hg)
        qmap = tensor_map(s.tc, sp.tc, lift.phi.map_at, gG.map_at, 0)
    except DescentError as exc:
        out.append(failed("theta_der_naturality", counterexample={"reason": str(exc)}))
        return out
    hpq = wp.target.class_map @ qmap @ w.target.rep_map
    lhs = wp.theta_der @ src_map
    rhs = hpq @ w.theta_der
    if lhs == rhs:
        out.append(passed("theta_der_naturality", source_dim=w.source.dim))
    else:
        out.append(failed("theta_der_naturality",
                          counterexample={"lhs": _strs(lhs), "rhs": _strs(rhs)}))
    return out
