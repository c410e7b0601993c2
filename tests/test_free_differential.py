"""Random free modules, built in one `free_module` pass.

`random_free_module` draws each d(g) inside the pass that builds its
module, from d^{e+1} of that module.  It must give exactly the module of
the per-prefix reference, which builds `free_module` on the generators
before g and draws d(g) from its differential, and it must consume the
same random stream.  The digests below were recorded when every prefix
was rebuilt, one generator at a time.
"""
import hashlib
import random
import sys

import pytest

from dgkunneth import dgmodule
from dgkunneth.dgmodule import LEFT, RIGHT, FreeLayout, free_module, validate_module
from dgkunneth.field import Field
from dgkunneth.genlab import (
    ALGEBRA_FAMILIES,
    CorpusProfile,
    generate_instance,
    random_free_module,
)
from dgkunneth.linalg import Matrix, kernel_basis
from dgkunneth.serialize import dumps_canonical, instance_to_json, module_to_json

FIELDS = {"F101": Field.prime(101), "Q": Field.rationals(),
          "F2^61-1": Field.prime(2 ** 61 - 1)}
# sha256 of the first 24 instances of the published profile, and of one
# 8-generator random free module per family and side.  The corpus digests
# were re-pinned when written `dims` dropped their zero entries; the
# earlier files with those entries removed give the same digests
CORPUS_SHA256 = {
    "F101": "f224336adcccd6e7ff29858cce0f8bdfe6ca4ed4549f668eb5dfc4b881491386",
    "Q": "8bd6aeecb69ef9cff7e2b1b4102d8b0b85eefec750476c7379a58a85ab653ead",
}
WIDE_SHA256 = {
    "F101": "5794f005d1c78d8e06dacb09a176683d302d2a0050dee2f47f6f1feea3d1d871",
    "Q": "4770697cd9464a1ac474a540668b60b0491f5445a5ace80b93cfbe548cecacf0",
}


def corpus_digest(field):
    profile = CorpusProfile(field=field)
    docs = [instance_to_json(generate_instance(profile, i)) for i in range(24)]
    return hashlib.sha256(dumps_canonical(docs).encode()).hexdigest()


def wide_modules(field):
    """One 8-generator module per family and side, retried as `plain_wide` does."""
    out = []
    for family in sorted(ALGEBRA_FAMILIES):
        a = ALGEBRA_FAMILIES[family](field)
        for side in (RIGHT, LEFT):
            rng = random.Random(f"wide:{family}:{side}")
            mod = None
            while mod is None:
                mod = random_free_module(a, side, rng, 32, 4, n_gens=8)
            out.append(mod)
    return out


def wide_digest(field):
    docs = [module_to_json(m) for m in wide_modules(field)]
    return hashlib.sha256(dumps_canonical(docs).encode()).hexdigest()


def _generators(a, side, rng, count):
    """`count` generators over four degrees with d(g) drawn from the
    cocycles of `free_module` on the generators before g, each its own run:
    the per-prefix reference, drawing from `rng` as `random_free_module`
    does."""
    degrees = sorted((rng.randint(-3, 0) for _ in range(count)), reverse=True)
    diffs = []
    for g, e in enumerate(degrees):
        partial, _ = free_module(a, side, [(d, 1) for d in degrees[:g]], diffs)
        k = kernel_basis(partial.diff_map(e + 1)).transpose()
        diffs.append(k @ Matrix.column(a.field, a.field.random_vector(rng, k.cols)))
    return degrees, diffs


@pytest.mark.parametrize("label", sorted(FIELDS))
@pytest.mark.parametrize("family", sorted(ALGEBRA_FAMILIES))
def test_free_differential_is_the_free_module_differential(family, label):
    # the differential drawn in the one pass, one run per degree, is that of
    # the reference, one run per generator
    field = FIELDS[label]
    a = ALGEBRA_FAMILIES[family](field)
    for side in (RIGHT, LEFT):
        nonzero = ties = 0
        for trial in range(4):
            seed = f"{family}:{label}:{side}:{trial}"
            got = random_free_module(a, side, rng := random.Random(seed), 10 ** 6, 4, n_gens=5)
            degrees, diffs = _generators(a, side, ref := random.Random(seed), 5)
            assert rng.getstate() == ref.getstate()
            ties += len(set(degrees)) < len(degrees)
            nonzero += sum(not v.is_zero() for v in diffs)
            want, _ = free_module(a, side, [(e, 1) for e in degrees], diffs)
            assert got == want and validate_module(got) == []
            lo, hi = want.window
            assert got.window == want.window and got.dims == want.dims
            for i in range(lo - 1, hi + 2):
                g, w = got.diff_map(i), want.diff_map(i)
                assert (g.rows, g.cols, g.arr.dtype) == (w.rows, w.cols, w.arr.dtype)
                assert g == w, (side, degrees, i)
        assert nonzero > 0 and ties > 0


@pytest.mark.parametrize("label", sorted(CORPUS_SHA256))
def test_generated_inputs_are_pinned(label):
    field = FIELDS[label]
    assert corpus_digest(field) == CORPUS_SHA256[label]
    assert wide_digest(field) == WIDE_SHA256[label]


def test_one_free_module_per_random_free_module(monkeypatch):
    # count by name, wherever the package binds the three functions
    calls = []
    for name in ("free_module", "kernel_basis", "_free_diff"):
        orig = getattr(dgmodule, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls.append((_name, args))
            return _orig(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("dgkunneth") \
                    and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    a = ALGEBRA_FAMILIES["koszul_dg"](FIELDS["F101"])
    rng = random.Random(7)
    for side in (RIGHT, LEFT):
        calls.clear()
        mod = random_free_module(a, side, rng, 10 ** 6, 4, n_gens=8)
        assert mod is not None
        built = [args for name, args in calls if name == "free_module"]
        assert len(built) == 1
        degrees = [e for e, n in built[0][2] for _ in range(n)]
        assert len(degrees) == 8
        # one kernel per distinct degree e where the generators above e
        # leave a nonzero degree e + 1
        nonzero = [e for e in set(degrees)
                   if FreeLayout(a, tuple((d, 1) for d in degrees if d > e)).dim(e + 1)]
        assert 0 < len(nonzero) < len(set(degrees))
        assert sum(name == "kernel_basis" for name, _ in calls) == len(nonzero)
        # and one differential per degree of the module
        assert [args[-1] for name, args in calls if name == "_free_diff"] == \
            sorted(mod.degrees(), reverse=True)
