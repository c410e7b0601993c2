"""Construction and verification of the top-degree tensor isomorphism.

For a right module M bounded above by i0 and a left module N bounded above
by j0, `theta` builds the map

    H^{i0}(M) (x)_{H^0(A)} H^{j0}(N)  ->  H^{i0+j0}(M (x)_A N)
    [m] (x) [n]                       |->  [m (x) n]

on deterministic bases via explicit cocycle lifts, certifies that it is well
defined and bijective, and `check_exact_sequences` re-derives it along the
four exact sequences of degreewise presentations that force it to be an
isomorphism.  Each instance's `KunnethWitness` is built once and handed to
the checks that follow: they reuse its modules, cohomologies and tensor
complex (`check_functoriality` moves a morphism's maps onto its modules),
and gain their independence from how they reach theta (the presentation
route), not from recomputing the same objects.  Verification failures are
reported as counterexample bundles inside CheckResults, never raised.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace

from .checks import CheckResult, DescentError, all_ok, failed, passed
from .dgmodule import (
    CohomologyModule,
    DGModule,
    StrictMorphism,
    _truncate,
    cohomology,
    shift,
    transport_morphism,
)
from .linalg import Cohomology, Matrix, QuotientSpace, hstack, rank, solve
from .serialize import matrix_to_json
from .tensor import (
    TensorComplex,
    balanced_tensor,
    degree0_iso_check,
    induced_balanced_map,
    minus1_comparison,
    phi_summands,
    tensor_cohomology,
    tensor_map,
)


@dataclass
class KunnethWitness:
    """theta with the evidence that it is well defined and bijective."""
    i0: int
    j0: int
    m: DGModule                   # M and N as given
    n: DGModule
    mT: DGModule                  # M translated by i0, smart-truncated at 0
    nT: DGModule
    m_incl: Matrix | None         # mT^0 -> M^{i0}, None where nothing is cut
    n_incl: Matrix | None
    hm: CohomologyModule          # H^0(mT) = H^{i0}(M)
    hn: CohomologyModule
    source: QuotientSpace         # H^{i0}(M) (x)_{H^0(A)} H^{j0}(N)
    tc: TensorComplex             # mT (x)_A nT
    target: Cohomology            # H^0 of the tensor complex
    theta: Matrix
    evidence: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all_ok(self.evidence)


def class_assignment(hm, hn, tc, target) -> Matrix:
    """[m] (x) [n] -> [m (x) n] on the plain tensor of cohomology bases."""
    amb = hm.rep_map.kron(hn.rep_map)
    return target.class_map @ tc.space(0).projection @ amb


def theta(m: DGModule, n: DGModule, i0: int | None = None, j0: int | None = None) -> KunnethWitness:
    """The top-degree isomorphism witness for (M, N) at i0 and j0, by
    default the window tops, on M and N translated so i0 and j0 sit at 0
    and smart-truncated there.  At or above a window top that cuts nothing
    (the inclusion is None), and larger bounds give the trivially true
    statement.  Below it, theta states the trick for the truncation, whose
    degree-0 cocycles `m_incl` includes into M^{i0}.
    """
    i0 = m.window[1] if i0 is None else i0
    j0 = n.window[1] if j0 is None else j0
    mT, m_incl = _truncate(shift(m, i0), 0)
    nT, n_incl = _truncate(shift(n, j0), 0)
    hm, hn = cohomology(mT, 0), cohomology(nT, 0)
    source = balanced_tensor(hm.h0_action, hn.h0_action)
    tc = TensorComplex(mT, nT)
    target = tensor_cohomology(tc, 0)
    evidence = []

    tmat = class_assignment(hm, hn, tc, target)
    rel = source.relations
    img = tmat @ rel.transpose()
    if img.is_zero():
        evidence.append(passed("theta_well_defined", relations=rel.rows))
    else:
        evidence.append(failed("theta_well_defined",
                               counterexample=_relation_witness(img, rel)))
    th = tmat @ source.section

    if source.dim == target.dim:
        evidence.append(passed("dimension_match", dim=source.dim))
    else:
        evidence.append(failed("dimension_match",
                               counterexample={"source_dim": source.dim,
                                               "target_dim": target.dim}))
    r = rank(th)
    if r == source.dim == target.dim:
        evidence.append(passed("theta_bijective", rank=r))
    else:
        evidence.append(failed("theta_bijective",
                               counterexample={"rank": r, "source_dim": source.dim,
                                               "target_dim": target.dim}))
    return KunnethWitness(i0, j0, m, n, mT, nT, m_incl, n_incl, hm, hn, source, tc, target, th,
                          evidence)


def _relation_witness(img: Matrix, rel: Matrix) -> dict:
    """The first relation row with a nonzero image, and that image."""
    c = int((img.arr != 0).any(axis=0).argmax())
    return {"relation_row": c, "relation": matrix_to_json(rel.rows_at([c]))[0],
            "image": matrix_to_json(img.columns([c]).transpose())[0]}


# ---------------------------------------------------------------------------
# The exact sequences of the degreewise presentation


def check_exact_sequences(w: KunnethWitness) -> list:
    """Exactness evidence for the sequences (phi -> pi), the replacement
    sequences over A^0, and the combined comparison sequence, plus the
    degree-0 bijection and the degree -1 surjection.

    The translated modules, their H^0, the tensor complex, its H^0 and the
    theta source are taken from the witness `theta` built: rebuilding them
    with the same deterministic code would repeat the same numbers, not
    add evidence.  What is checked here is new: the presentation maps
    phi, pi and the replacements are derived from the degree-0 and -1
    pieces alone, and theta is reached a second time through them.
    """
    mT, nT, hm, hn, tc, target = w.mT, w.nT, w.hm, w.hn, w.tc, w.target
    f = mT.field
    out = []

    b1, b2, mid, phi1, phi2 = phi_summands(mT, nT)
    deg0_mat, deg0_res = degree0_iso_check(tc, mid)
    out.append(deg0_res)
    phi = hstack([phi1, phi2])
    r_phi = rank(phi)

    # surjectivity of B1 (+) B2 -> (M (x)_A N)^{-1}
    sp1 = tc.space(-1)
    onto = minus1_comparison(tc, b1, b2)
    r_onto = rank(onto)
    if r_onto == sp1.dim:
        out.append(passed("degree_minus1_surjective", dim=sp1.dim))
    else:
        out.append(failed("degree_minus1_surjective",
                          counterexample={"rank": r_onto, "dim": sp1.dim}))

    # pi: M^0 (x)_{A^0} N^0 -> H^0(M (x) N)
    pi = target.class_map @ deg0_mat
    out.append(_exactness("sequence_phi_pi", phi, r_phi, pi))

    # replacement sequences over A^0, which acts on H^0(mT) and H^0(nT)
    # through A^0 ->> H^0(A)
    proj = mT.algebra.h0().projection
    hm0 = hm.h0_action.times_eye_kron(hm.dim, proj)
    hn0 = hn.h0_action.times_kron_eye(proj, hn.dim)
    c1 = balanced_tensor(hm0, nT.action_map(0, 0))
    hh = balanced_tensor(hm0, hn0)
    pi_m = hm.class_map                      # M^0 -> H^0(M), A^0-equivariant
    pi_n = hn.class_map
    eye_n0 = Matrix.identity(f, nT.dim(0))
    eye_hm = Matrix.identity(f, hm.dim)

    map_130_1 = induced_balanced_map(b2, c1, pi_m, nT.diff_map(-1))
    map_130_2 = induced_balanced_map(c1, hh, eye_hm, pi_n)
    out.append(_exactness("sequence_replaced_by_piM", map_130_1, rank(map_130_1), map_130_2))

    map_131_1 = phi1
    map_131_2 = induced_balanced_map(mid, c1, pi_m, eye_n0)
    out.append(_exactness("sequence_apply_tensor_N0", map_131_1, rank(map_131_1),
                          map_131_2))

    map_133_2 = induced_balanced_map(mid, hh, pi_m, pi_n)
    out.append(_exactness("sequence_combined", phi, r_phi, map_133_2))

    # the A^0- and H^0(A)-balanced tensors of the cohomologies coincide
    src = w.source
    if src.pivots == hh.pivots and src.dim == hh.dim:
        out.append(passed("balanced_ring_comparison", dim=src.dim))
    else:
        out.append(failed("balanced_ring_comparison",
                          counterexample={"h0_dim": hh.dim, "hbar_dim": src.dim}))

    # independent route to theta: both sequences present a cokernel of phi,
    # so pi factors uniquely through pi_M (x) pi_N; that factorization must
    # reproduce the lift-built matrix
    out.append(_comparison_route(w, pi, map_133_2, hh))

    # the first replacement is derived from pi_M being surjective
    if rank(pi_m) == hm.dim:
        out.append(passed("piM_surjective", dim=hm.dim))
    else:
        out.append(failed("piM_surjective", counterexample={"rank": rank(pi_m)}))
    return out


def _comparison_route(w: KunnethWitness, pi: Matrix, pi_mn: Matrix, hh) -> CheckResult:
    """Re-derive theta by comparing the two presentations.

    pi and pi_mn are surjections off the same middle space with equal
    kernels (the image of phi), so kappa := pi o (any right inverse of
    pi_mn) is the unique map with kappa o pi_mn = pi; it must coincide with
    the cocycle-lift construction on the shared quotient basis.  kappa is
    built from the presentation maps only, never from cocycle lifts, which
    is what makes it independent of w.theta; the witness's theta is
    compared as built, since rebuilding it would only repeat it.
    """
    rinv = solve(pi_mn, Matrix.identity(pi_mn.field, pi_mn.rows))
    if rinv is None:
        return failed("comparison_route_matches_theta",
                      counterexample={"reason": "pi_mn_not_surjective"})
    kappa = pi @ rinv
    # hh and the theta source share the same quotient presentation
    if hh.pivots != w.source.pivots or hh.dim != w.source.dim:
        return failed("comparison_route_matches_theta",
                      counterexample={"reason": "presentation_mismatch"})
    if kappa == w.theta:
        return passed("comparison_route_matches_theta", dim=hh.dim)
    return failed("comparison_route_matches_theta",
                  counterexample={"kappa": matrix_to_json(kappa),
                                  "theta": matrix_to_json(w.theta)})


def _exactness(name: str, first: Matrix, r1: int, second: Matrix) -> CheckResult:
    """im(first) = ker(second) and second surjective, as exact rank identities;
    r1 is rank(first), so a map shared by two sequences is reduced once."""
    comp = second @ first
    if not comp.is_zero():
        return failed(name, counterexample={"reason": "composite_nonzero"})
    mid_dim = first.rows
    r2 = rank(second)
    img_eq_ker = r1 == mid_dim - r2
    onto = r2 == second.rows
    if img_eq_ker and onto:
        return passed(name, middle_dim=mid_dim, image_rank=r1, final_rank=r2)
    return failed(name, counterexample={"middle_dim": mid_dim, "image_rank": r1,
                                        "kernel_dim": mid_dim - r2,
                                        "final_rank": r2, "final_dim": second.rows})


# ---------------------------------------------------------------------------
# Representative independence and functoriality


def check_representative_independence(w: KunnethWitness, samples: int = 20,
                                      seed: int = 0) -> CheckResult:
    """Perturb cocycle lifts by coboundaries; classes must not move.  Column
    s of each batch is sample s, on class pair s modulo their count."""
    rng = random.Random(f"repind:{seed}")
    f, mT, nT = w.mT.field, w.mT, w.nT

    pairs = [(u, v) for u in range(w.hm.dim) for v in range(w.hn.dim)]
    if not pairs:
        return passed("representative_independence", samples=0, note="zero_source")
    picked = [pairs[s % len(pairs)] for s in range(samples)]
    zm = w.hm.rep_map.columns([u for u, v in picked])
    zn = w.hn.rep_map.columns([v for u, v in picked])
    # coboundaries d(w) of random w, drawn for M then N in each sample
    draws = [(f.random_vector(rng, mT.dim(-1)), f.random_vector(rng, nT.dim(-1)))
             for s in range(samples)]
    wm = Matrix(f, samples, mT.dim(-1), [a for a, b in draws]).transpose()
    wn = Matrix(f, samples, nT.dim(-1), [b for a, b in draws]).transpose()
    # the ambient degree 0 of mT (x) nT is the single block M^0 (x) N^0
    classes = w.target.class_map @ w.tc.space(0).projection
    base = classes @ zm.kron_columns(zn)
    got = classes @ (zm + mT.diff_map(-1) @ wm).kron_columns(zn + nT.diff_map(-1) @ wn)
    # the defining formula: e_u (x) e_v is basis vector u * dim H(N) + v
    via_theta = (w.theta @ w.source.projection).columns(
        [u * w.hn.dim + v for u, v in picked])
    # the first sample off the defining formula or moved by its perturbation
    off = (via_theta.arr != base.arr).any(axis=0)
    bad = off | (got.arr != base.arr).any(axis=0)
    if bad.any():
        s = int(bad.argmax())
        u, v = picked[s]
        if off[s]:
            return failed("representative_independence",
                          counterexample={"pair": (u, v), "reason": "defining_formula",
                                          "theta": matrix_to_json(via_theta.transpose())[s],
                                          "direct": matrix_to_json(base.transpose())[s]})
        return failed("representative_independence",
                      counterexample={"pair": (u, v), "sample": s,
                                      "base": matrix_to_json(base.transpose())[s],
                                      "perturbed": matrix_to_json(got.transpose())[s]})
    return passed("representative_independence", samples=samples)


def cohomology_map(fm: StrictMorphism, src_coh: CohomologyModule,
                   dst_coh: CohomologyModule) -> Matrix:
    """H^i(f) on the deterministic bases."""
    i = src_coh.degree
    return dst_coh.class_map @ fm.map_at(i) @ src_coh.rep_map


def transported(fm: StrictMorphism, gm: StrictMorphism, w: KunnethWitness,
                wp: KunnethWitness) -> tuple:
    """(f, g) moved onto the translated modules of `w`, the witness of
    their sources, and `wp`, that of their targets, through the witnesses'
    truncation inclusions.  Witnesses at different bounds, or whose M and N
    are not the morphisms' ends, raise ValueError."""
    if (wp.i0, wp.j0) != (w.i0, w.j0):
        raise ValueError("functoriality witnesses have different bounds")
    if (fm.source, fm.target, gm.source, gm.target) != (w.m, wp.m, w.n, wp.n):
        raise ValueError("functoriality witnesses do not match the morphisms")
    return (transport_morphism(fm, w.mT, wp.mT, w.i0, w.m_incl, wp.m_incl),
            transport_morphism(gm, w.nT, wp.nT, w.j0, w.n_incl, wp.n_incl))


def check_functoriality(fm: StrictMorphism, gm: StrictMorphism,
                        w: KunnethWitness, wp: KunnethWitness) -> list:
    """Naturality of theta in both arguments for a pair of strict morphisms.

    `w` and `wp` are the witnesses of the sources and of the targets, built
    once by the caller (rebuilding them would repeat the same numbers); the
    induced maps and both sides of the square are computed per pair.
    Witnesses that do not match the morphisms raise ValueError."""
    fT, gT = transported(fm, gm, w, wp)
    return naturality_square("theta_naturality", w, wp, (fT, gT, w, wp), (w.tc, wp.tc),
                             (fT.map_at, gT.map_at), (w.theta, wp.theta),
                             source_dim=w.source.dim, target_dim=wp.target.dim)


def naturality_square(name: str, w, wp, coh: tuple, tcs: tuple, qmaps: tuple,
                      thetas: tuple, lift: list = (), **details) -> list:
    """Copies of the failed evidence of the witnesses `w` and `wp`, then
    `lift` (how f (x) g was built; a failure there ends the list), then check
    `name`: thetas[1] o (H(f) (x) H(g)) == H(f (x) g) o thetas[0].

    `coh` = (f, g, kw, kwp): the morphisms taken to cohomology and the plain
    witnesses holding the H^0 bases the sources are stated on; `qmaps` are
    the degree maps of f (x) g between the tensor complexes `tcs`."""
    out = [replace(r) for r in w.evidence + wp.evidence if not r.ok] + list(lift)
    if not all_ok(lift):
        return out
    f, g, kw, kwp = coh
    hf = cohomology_map(f, kw.hm, kwp.hm)
    hg = cohomology_map(g, kw.hn, kwp.hn)
    try:
        src_map = induced_balanced_map(w.source, wp.source, hf, hg)
        qmap = tensor_map(*tcs, *qmaps, 0)
    except DescentError as exc:
        out.append(failed(name, counterexample={"reason": str(exc)}))
        return out
    lhs = thetas[1] @ src_map
    rhs = wp.target.class_map @ qmap @ w.target.rep_map @ thetas[0]
    if lhs == rhs:
        out.append(passed(name, **details))
    else:
        out.append(failed(name, counterexample={"lhs": matrix_to_json(lhs),
                                                "rhs": matrix_to_json(rhs)}))
    return out
