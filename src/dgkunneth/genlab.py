"""Seeded generators for valid DG algebras, DG modules and strict morphisms.

Random DG algebras are never sampled from raw structure constants (which
would almost never satisfy associativity + Leibniz); instead every emitted
algebra comes from a small audited family list, and modules are free
modules with repaired differentials (one `free_module` pass each), varied
through shifts, truncations, sums and mapping cones.  Everything emitted
passes its validator, and generation is deterministic per (seed, index).
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from itertools import accumulate

import numpy as np

from .checks import failed, passed
from .dgalgebra import DGAlgebra, StructureError, validate_algebra
from .dgmodule import (
    LEFT,
    RIGHT,
    DGModule,
    StrictMorphism,
    direct_sum,
    free_module,
    mapping_cone,
    regular_module,
    shift,
    smart_truncate,
    validate_module,
)
from .field import Field
from .linalg import Matrix, from_blocks, kernel_basis, rank, vstack
from .tensor import TensorComplex, minus1_comparison, phi_summands


class GenerationError(Exception):
    """Resampling budget exhausted; carries the seed context."""


# ---------------------------------------------------------------------------
# Algebra families


def _validated(a: DGAlgebra, family: str) -> DGAlgebra:
    """`a`, or a StructureError naming its first failed axiom."""
    bad = validate_algebra(a)
    if bad:
        raise StructureError(f"{family} axioms fail: {bad[0]}")
    return a


def make_ordinary(field: Field, structure_constants, unit=None) -> DGAlgebra:
    """Degree-0 algebra from a table: structure_constants[u][v] = coords of e_u e_v.
    The unit is a column, e_0 by default."""
    n = len(structure_constants)
    if any(len(row) != n for row in structure_constants):
        raise StructureError("structure constant table is not square")
    # column u * n + v holds the coordinates of e_u e_v
    mult = Matrix(field, n, n * n, [[_scalar(field, structure_constants[u][v][r])
                                     for u in range(n) for v in range(n)] for r in range(n)])
    if unit is None:
        unit = Matrix.identity(field, n).columns([0])
    return _validated(DGAlgebra(field, {0: n}, {(0, 0): mult}, {}, unit), "ordinary algebra")


def _scalar(field: Field, x):
    return field.of_int(x) if isinstance(x, int) else x


def make_field_algebra(field: Field) -> DGAlgebra:
    return make_ordinary(field, [[[1]]])


def make_dual_numbers(field: Field) -> DGAlgebra:
    """k[t]/(t^2) in degree 0; basis (1, t)."""
    return make_ordinary(field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])


def make_truncated_poly3(field: Field) -> DGAlgebra:
    """k[t]/(t^3); basis (1, t, t^2)."""
    return make_ordinary(field, [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])


def make_upper_triangular2(field: Field) -> DGAlgebra:
    """Upper triangular 2x2 matrices; basis (e11, e12, e22); noncommutative."""
    z = [0, 0, 0]
    return make_ordinary(field, [
        [[1, 0, 0], [0, 1, 0], z],
        [z, z, [0, 1, 0]],
        [z, [0, 0, 0], [0, 0, 1]],
    ], unit=Matrix.from_int_rows(field, [[1], [0], [1]]))


def make_exterior(field: Field, contractible: bool = False) -> DGAlgebra:
    """Lambda = k<eps>, |eps| = -1, eps^2 = 0; d(eps) = 1 when contractible."""
    f = field
    dims = {-1: 1, 0: 1}
    mult = {
        (0, 0): Matrix.from_int_rows(f, [[1]]),
        (0, -1): Matrix.from_int_rows(f, [[1]]),
        (-1, 0): Matrix.from_int_rows(f, [[1]]),
        (-1, -1): Matrix.zeros(f, 0, 1),
    }
    d = Matrix.from_int_rows(f, [[1 if contractible else 0]])
    return _validated(DGAlgebra(f, dims, mult, {-1: d}, Matrix.from_int_rows(f, [[1]])),
                      "exterior algebra")


def make_koszul_dg(field: Field) -> DGAlgebra:
    """k[t]/(t^2) <eps> with d(eps) = t: degrees -1, 0 of dimension 2 each.

    Basis: degree 0 (1, t); degree -1 (eps, eps t).  Graded-commutative with
    nonzero differential; H^0 = k and H^{-1} = k.[eps t].
    """
    f = field
    dims = {-1: 2, 0: 2}
    m00 = Matrix.from_int_rows(f, [[1, 0, 0, 0], [0, 1, 1, 0]])
    # deg0 x deg-1 -> deg-1: 1*eps=eps, 1*epst=epst, t*eps=epst, t*epst=0
    m0m = Matrix.from_int_rows(f, [[1, 0, 0, 0], [0, 1, 1, 0]])
    # deg-1 x deg0: eps*1=eps, eps*t=epst, epst*1=epst, epst*t=0
    mm0 = Matrix.from_int_rows(f, [[1, 0, 0, 0], [0, 1, 1, 0]])
    mmm = Matrix.zeros(f, 0, 4)
    diff = {-1: Matrix.from_int_rows(f, [[0, 0], [1, 0]])}  # d(eps)=t, d(eps t)=0
    a = DGAlgebra(f, dims,
                  {(0, 0): m00, (0, -1): m0m, (-1, 0): mm0, (-1, -1): mmm},
                  diff, Matrix.from_int_rows(f, [[1], [0]]))
    return _validated(a, "koszul algebra")


def _once_per_field(family: str, make):
    """`make(field)`, built and validated once per field object and kept
    in its `families`; a new or unpickled field builds its own."""
    return lambda field: field.families.get(family) or \
        field.families.setdefault(family, make(field))


ALGEBRA_FAMILIES = {family: _once_per_field(family, make) for family, make in {
    "field": make_field_algebra,
    "dual_numbers": make_dual_numbers,
    "truncated_poly3": make_truncated_poly3,
    "upper_triangular": make_upper_triangular2,
    "exterior": make_exterior,
    "exterior_contractible": lambda f: make_exterior(f, contractible=True),
    "koszul_dg": make_koszul_dg,
}.items()}


# ---------------------------------------------------------------------------
# Basic modules


def ordinary_module(a: DGAlgebra, side: str, action0: Matrix, degree: int = 0) -> DGModule:
    """Module concentrated in one degree over a degree-0 algebra."""
    n = action0.rows
    return DGModule(side, a, (degree, degree), {degree: n}, {}, {(degree, 0): action0})


def simple_module_dual_numbers(a: DGAlgebra, side: str) -> DGModule:
    """k with t acting by zero over k[t]/(t^2)."""
    return ordinary_module(a, side, Matrix.from_int_rows(a.field, [[1, 0]]))


# ---------------------------------------------------------------------------
# Random free modules with repaired differentials


def random_free_module(a: DGAlgebra, side: str, rng: random.Random,
                       max_dim: int, span: int, n_gens: int | None = None):
    """Free module on random generators; d(g) sampled from the cocycles of
    the part already built, so d^2 = 0 holds by construction.

    The generators come as one run per degree, by descending degree, and
    `free_module` draws each run in its one pass, from d^{e+1} of the
    module it builds: A is nonpositive, so that differential involves only
    the generators above e.  Its kernel is computed once per degree, and
    not at all when degree e + 1 is zero; each generator still makes its
    own draw, in order."""
    lo_deg = -(span - 1)
    if n_gens is None:
        n_gens = rng.randint(1, 3)
    runs = sorted(Counter(rng.randint(lo_deg, 0) for _ in range(n_gens)).items(), reverse=True)
    f = a.field

    def draw(d: Matrix, count: int) -> Matrix:
        # the cocycles as columns, with none to find when degree e + 1 is zero
        k = kernel_basis(d).transpose() if d.cols else Matrix.zeros(f, 0, 0)
        # one random combination of them per generator, one draw per basis vector
        coeffs = [f.random_vector(rng, k.cols) for _ in range(count)]
        return k @ Matrix(f, count, k.cols, coeffs).transpose()

    mod, _ = free_module(a, side, runs, draw)
    # checked after the draws, which every later draw of `rng` follows
    if max(mod.dims.values(), default=0) > max_dim:
        return None
    return mod


def random_module(a: DGAlgebra, side: str, rng: random.Random,
                  max_dim: int = 4, span: int = 4, tries: int = 12) -> DGModule:
    """A valid module from the recipe mix: free / cone / sum / truncation / shift."""
    for _ in range(tries):
        recipe = rng.choices(
            ["free", "cone", "sum", "trunc", "zero_h", "regular"],
            weights=[40, 15, 12, 15, 8, 10])[0]
        mod = None
        if recipe == "free":
            mod = random_free_module(a, side, rng, max_dim, span)
        elif recipe == "regular":
            mod = regular_module(a, side)
            if max(mod.dims.values(), default=0) > max_dim:
                mod = None
        elif recipe in ("sum", "cone"):
            m1 = random_free_module(a, side, rng, max_dim, span - 1, n_gens=1)
            m2 = random_free_module(a, side, rng, max_dim, span - 1, n_gens=1)
            if m1 and m2:
                mod = direct_sum(m1, m2) if recipe == "sum" else \
                    mapping_cone(random_morphism(m1, m2, rng))
        elif recipe == "zero_h":
            m1 = random_free_module(a, side, rng, max_dim, span - 1, n_gens=1)
            if m1:
                mod = mapping_cone(StrictMorphism.identity(m1))
        elif recipe == "trunc":
            m1 = random_free_module(a, side, rng, max_dim, span)
            if m1:
                lo, hi = m1.window
                mod = smart_truncate(m1, rng.randint(lo, hi))
        if mod is None:
            continue
        if rng.random() < 0.2:
            mod = shift(mod, rng.choice([-2, -1, 1, 2]))
        if max(mod.dims.values(), default=0) <= max_dim and mod.total_dim() > 0:
            return mod
    raise GenerationError(f"could not build a module within caps (side={side})")


def random_morphism(m: DGModule, mp: DGModule, rng: random.Random) -> StrictMorphism:
    """A random strict morphism: sample the solution space of the
    chain-map + equivariance linear system."""
    if m.side != mp.side or m.algebra != mp.algebra:
        raise StructureError("incompatible endpoints")
    f = m.field
    a = m.algebra
    degs = sorted(set(m.degrees()) | set(mp.degrees()))
    *starts, total = accumulate((mp.dim(i) * m.dim(i) for i in degs), initial=0)
    offs = dict(zip(degs, starts))
    if total == 0:
        return StrictMorphism.zero(m, mp)

    # X_i is the (mp.dim(i) x m.dim(i)) component at offs[i], row-major.
    # Each constraint X_t L = R X_i adds the rows (I (x) L^T) vec X_t - (R (x) I) vec X_i.
    blocks = []
    nrows = 0

    def constrain(t, left, i, right):
        nonlocal nrows
        if mp.dim(t) == 0 or m.dim(i) == 0:
            return
        blocks.append((nrows, offs[t], Matrix.identity(f, mp.dim(t)).kron(left.transpose()).arr))
        blocks.append((nrows, offs[i], -right.kron(Matrix.identity(f, m.dim(i))).arr))
        nrows += mp.dim(t) * m.dim(i)

    for i in m.degrees():
        # chain map: f_{i+1} d_i = d'_i f_i
        constrain(i + 1, m.diff_map(i), i, mp.diff_map(i))
    for i in m.degrees():
        for j in a.degrees():
            dj = a.dim(j)
            t = i + j
            if mp.dim(t) == 0:
                continue
            act, actp = m.action_map(i, j), mp.action_map(i, j)
            # equivariance per basis vector a_c of A^j: f_t (x.a_c) = f_i(x).a_c
            for c in range(dj):
                if m.side == RIGHT:
                    cols, colsp = slice(c, None, dj), slice(c, None, dj)
                else:
                    cols = slice(c * m.dim(i), (c + 1) * m.dim(i))
                    colsp = slice(c * mp.dim(i), (c + 1) * mp.dim(i))
                constrain(t, act.columns(cols), i, actp.columns(colsp))

    basis = kernel_basis(from_blocks(f, nrows, total, blocks))
    # a random point of the solution space, one draw per basis row
    coeffs = Matrix(f, 1, basis.rows, [f.random_vector(rng, basis.rows)])
    sol = (coeffs @ basis).arr[0]
    maps = {}
    for i in degs:
        if mp.dim(i) and m.dim(i):
            size = mp.dim(i) * m.dim(i)
            maps[i] = Matrix(f, mp.dim(i), m.dim(i),
                             sol[offs[i]:offs[i] + size].reshape(mp.dim(i), m.dim(i)))
    return StrictMorphism(m, mp, maps)


# ---------------------------------------------------------------------------
# Corpus profiles


DEFAULT_FAMILY_MIX = {
    "field": 1.0,
    "dual_numbers": 2.0,
    "truncated_poly3": 1.0,
    "upper_triangular": 1.5,
    "exterior": 2.0,
    "exterior_contractible": 1.0,
    "koszul_dg": 2.0,
}


# Upper bounds on a profile's sizes: a larger value is rejected with
# StructureError (CLI exit 2) before any instance is generated.  10,000
# instances of the published sizes take about a minute over F_101 on one
# core; the window and dimension caps are 4 and 8 times the published 4.
PROFILE_CAPS = {"instance_count": 10_000, "degree_span": 16, "max_per_degree_dim": 32}


@dataclass(frozen=True)
class CorpusProfile:
    field: Field
    max_per_degree_dim: int = 4
    degree_span: int = 4
    instance_count: int = 200
    seed: int = 20240601
    family_mix: dict = dc_field(default_factory=lambda: dict(DEFAULT_FAMILY_MIX))

    def __post_init__(self):
        if self.instance_count <= 0 or self.max_per_degree_dim <= 0 or self.degree_span <= 0:
            raise StructureError("profile counts must be positive")
        for key, cap in PROFILE_CAPS.items():
            if getattr(self, key) > cap:
                raise StructureError(f"profile {key} {getattr(self, key)} exceeds its cap {cap}")
        weights = self.family_mix.values()
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise StructureError("family weights must be finite and non-negative")
        if not any(w > 0 for w in weights):
            raise StructureError("family mix must have a positive weight")
        unknown = set(self.family_mix) - set(ALGEBRA_FAMILIES)
        if unknown:
            raise StructureError(f"unknown families: {sorted(unknown)}")


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    algebra: DGAlgebra
    m: DGModule   # right module
    n: DGModule   # left module

    def __post_init__(self):
        if (self.m.side, self.n.side) != (RIGHT, LEFT):
            raise StructureError(f"{self.name}: m must be a right and n a left module")


def instance_rng(seed: int, idx: int) -> random.Random:
    return random.Random(f"{seed}:{idx}")


def generate_instance(profile: CorpusProfile, idx: int) -> Instance:
    rng = instance_rng(profile.seed, idx)
    names = sorted(profile.family_mix)
    weights = [profile.family_mix[k] for k in names]
    family = rng.choices(names, weights=weights)[0]
    algebra = ALGEBRA_FAMILIES[family](profile.field)
    try:
        m = random_module(algebra, RIGHT, rng, profile.max_per_degree_dim, profile.degree_span)
        n = random_module(algebra, LEFT, rng, profile.max_per_degree_dim, profile.degree_span)
    except GenerationError as exc:
        raise GenerationError(f"instance {idx} (seed {profile.seed}): {exc}") from exc
    return Instance(f"inst{idx:04d}", family, algebra, m, n)


def generate_corpus(profile: CorpusProfile):
    return [generate_instance(profile, i) for i in range(profile.instance_count)]


# ---------------------------------------------------------------------------
# Simple counterexample shrinking


def _shrink_candidates(inst: Instance):
    """Smaller valid variants: chop a top degree off M or N, or zero one
    structure-map entry (validator-gated by the caller)."""
    for attr in ("m", "n"):
        mod = getattr(inst, attr)
        lo, hi = mod.window
        if hi > lo:
            yield replace(inst, **{attr: smart_truncate(mod, hi - 1)})
        f = mod.field
        for kind in ("diff", "action"):
            table = getattr(mod, kind)
            for key in sorted(table, key=str):
                mat = table[key]
                for r, c in np.argwhere(mat.arr != f.zero).tolist():
                    arr = mat.arr.copy()
                    arr[r, c] = f.zero
                    patched = dict(table)
                    patched[key] = Matrix(f, mat.rows, mat.cols, arr)
                    kwargs = {"diff": dict(mod.diff), "action": dict(mod.action)}
                    kwargs[kind] = patched
                    cand = DGModule(mod.side, mod.algebra, mod.window,
                                    dict(mod.dims), kwargs["diff"], kwargs["action"])
                    yield replace(inst, **{attr: cand})


def _instance_size(inst: Instance):
    nnz = 0
    for mod in (inst.m, inst.n):
        z = mod.field.zero
        for table in (mod.diff, mod.action):
            for mat in table.values():
                nnz += int(np.count_nonzero(mat.arr != z))
    return (inst.m.total_dim() + inst.n.total_dim(), nnz)


def shrink_instance(inst: Instance, still_failing, budget: int = 40) -> Instance:
    """Greedy shrink: keep any strictly smaller valid instance on which
    `still_failing` holds.  Bounded by `budget` candidate evaluations."""
    current = inst
    improved = True
    while improved and budget > 0:
        improved = False
        for cand in _shrink_candidates(current):
            budget -= 1
            if budget <= 0:
                break
            if _instance_size(cand) >= _instance_size(current):
                continue
            if validate_module(cand.m) or validate_module(cand.n):
                continue
            try:
                if still_failing(cand):
                    current = cand
                    improved = True
                    break
            except Exception:   # noqa: BLE001 - a crashing candidate is no shrink
                continue
    return current


# ---------------------------------------------------------------------------
# The degree -1 non-injectivity witness


@dataclass(frozen=True)
class NoninjectivityWitness:
    """(1.eps) (x) 1 - 1 (x) (eps.1) over the exterior algebra.

    Nonzero in (M^{-1} (x)_{A^0} N^0) (+) (M^0 (x)_{A^0} N^{-1}) but zero in
    (M (x)_A N)^{-1}; the comparison map is still surjective.
    """
    algebra: object
    m: object
    n: object
    element: Matrix        # column in the direct-sum source
    source_dim: int
    target_dim: int
    image: Matrix          # column in the tensor quotient
    surjective: bool

    @property
    def checks(self):
        from .serialize import matrix_to_json   # here, as serialize imports genlab
        out = []
        out.append(passed("witness_source_dim", dim=self.source_dim)
                   if self.source_dim == 2 else
                   failed("witness_source_dim", counterexample={"dim": self.source_dim}))
        out.append(passed("witness_target_dim", dim=self.target_dim)
                   if self.target_dim == 1 else
                   failed("witness_target_dim", counterexample={"dim": self.target_dim}))
        out.append(failed("witness_nonzero_in_source") if self.element.is_zero() else
                   passed("witness_nonzero_in_source"))
        out.append(passed("witness_zero_in_target") if self.image.is_zero() else
                   failed("witness_zero_in_target",
                          counterexample={"image": matrix_to_json(self.image.transpose())[0]}))
        out.append(passed("witness_map_surjective") if self.surjective else
                   failed("witness_map_surjective"))
        return out


def noninjectivity_witness(field: Field) -> NoninjectivityWitness:
    a = make_exterior(field)
    m = regular_module(a, RIGHT)
    n = regular_module(a, LEFT)
    b1, b2, *_ = phi_summands(m, n)
    # 1 spans A^0 = M^0 = N^0, so a vector tensored with 1 keeps its coordinates
    m_eps = m.action_map(0, -1)       # 1.eps in M^{-1}
    eps_n = n.action_map(0, -1)       # eps.1 in N^{-1}
    # (1.eps) (x) 1 in the first summand, -(1 (x) (eps.1)) in the second
    element = vstack([b1.projection @ m_eps, b2.projection @ -eps_n])
    tc = TensorComplex(m, n)
    sp = tc.space(-1)
    # the comparison map kills the element
    onto = minus1_comparison(tc, b1, b2)
    return NoninjectivityWitness(
        a, m, n, element, b1.dim + b2.dim, sp.dim, onto @ element, rank(onto) == sp.dim)
