"""The published Q corpus reduced mod p = 2^61 - 1 gives the same witnesses.

Over F_p with p above 2^31 every product runs through Python ints, and over Q
through `Fraction`s and integer products; this reduction oracle runs both
paths on the same instances: theta and the whole plain battery on all 200,
theta_der and the whole derived battery on the first 50.  Reduction mod p is a ring map from the
rationals whose denominators p does not divide, so each instance reduces
to one over F_p, and a rank can only fall there.  Rank mod p equals the
rank over Q for all but finitely many p, so a mismatch is a finding to
explain (a bad prime or a bug), never a case to skip.
"""
from fractions import Fraction

import pytest

from dgkunneth.field import Field
from dgkunneth.genlab import CorpusProfile, generate_corpus
from dgkunneth.kunneth import theta
from dgkunneth.resolve import theta_der
from dgkunneth.serialize import instance_from_json, instance_to_json
from dgkunneth.suite import derived_checks, plain_checks

P = 2 ** 61 - 1
DERIVED = 50


class _VanishingDenominator(ValueError):
    pass


def _reduced(x):
    """The instance JSON `x` with every element n/d written as n * d^{-1} mod P
    and the field set to F_P; names, sides, windows and dims are kept."""
    if isinstance(x, dict):
        if x.get("kind") == "rationals":
            return {"kind": "prime", "p": P}
        return {k: _reduced(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_reduced(v) for v in x]
    if isinstance(x, str) and "/" in x:
        q = Fraction(x)
        if q.denominator % P == 0:
            raise _VanishingDenominator(x)
        return str(q.numerator * pow(q.denominator, -1, P) % P)
    return x


def _plain(w) -> tuple:
    return (w.i0, w.j0, w.hm.dim, w.hn.dim, w.source.dim, w.target.dim,
            [(r.name, r.ok) for r in w.evidence])


def _derived(w) -> tuple:
    return (*_plain(w.mn)[:4], w.source.dim, w.target.dim,
            [(r.name, r.ok) for r in w.evidence])


@pytest.fixture(scope="module")
def corpora():
    """(instance over Q, the same reduced over F_P) of each published Q
    instance, and the number skipped because a denominator vanishes mod P."""
    pairs, skipped = [], 0
    for inst in generate_corpus(CorpusProfile(field=Field.rationals())):
        try:
            pairs.append((inst, instance_from_json(_reduced(instance_to_json(inst)))))
        except _VanishingDenominator:
            skipped += 1
    return pairs, skipped


def test_no_published_denominator_vanishes_mod_p(corpora):
    pairs, skipped = corpora
    assert (len(pairs), skipped) == (200, 0)
    assert {inst.algebra.field.p for _, inst in pairs} == {P}


@pytest.fixture(scope="module")
def thetas(corpora):
    """(name, theta over Q, theta over F_P) of each published Q instance."""
    pairs, _ = corpora
    return [(q.name, theta(q.m, q.n), theta(fp.m, fp.n)) for q, fp in pairs]


def test_theta_agrees_over_q_and_mod_p(thetas):
    for name, wq, wp in thetas:
        assert _plain(wp) == _plain(wq), name


def test_plain_battery_agrees_over_q_and_mod_p(thetas):
    # every check of the plain battery, not only theta's evidence: the
    # representative-independence samples and the exact sequences too
    for name, wq, wp in thetas:
        got = [(r.name, r.ok, r.details) for r in plain_checks(wp)]
        assert got == [(r.name, r.ok, r.details) for r in plain_checks(wq)], name


@pytest.fixture(scope="module")
def derived_witnesses(corpora):
    """(name, theta_der over Q, theta_der over F_P) of the first `DERIVED`
    published Q instances."""
    pairs, _ = corpora
    return [(q.name, theta_der(q.m, q.n), theta_der(fp.m, fp.n)) for q, fp in pairs[:DERIVED]]


def test_theta_der_agrees_over_q_and_mod_p(derived_witnesses):
    for name, wq, wp in derived_witnesses:
        assert _derived(wp) == _derived(wq), name


def test_derived_battery_agrees_over_q_and_mod_p(derived_witnesses):
    # every check of the derived battery: depth stabilization and resolution
    # independence on the deeper resolutions, built from scratch in each field
    for name, wq, wp in derived_witnesses:
        got = [(r.name, r.ok, r.details) for r in derived_checks(wp)]
        assert got == [(r.name, r.ok, r.details) for r in derived_checks(wq)], name
