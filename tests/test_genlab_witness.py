import pickle
from dataclasses import replace

import pytest

from dgkunneth import genlab
from dgkunneth.checks import all_ok
from dgkunneth.field import Field
from dgkunneth.genlab import (
    ALGEBRA_FAMILIES,
    CorpusProfile,
    generate_corpus,
    make_exterior,
    noninjectivity_witness,
)
from dgkunneth.dgmodule import validate_module
from dgkunneth.linalg import Matrix

Q = Field.rationals()
F101 = Field.prime(101)


@pytest.fixture(params=[Q, F101], ids=["Q", "F101"])
def k(request):
    return request.param


def test_witness_dimensions_and_membership(k):
    w = noninjectivity_witness(k)
    assert w.source_dim == 2
    assert w.target_dim == 1
    assert not w.element.is_zero()
    assert w.image.is_zero()
    assert w.surjective
    assert all_ok(w.checks)


@pytest.mark.parametrize("corrupt, failing", [
    (lambda w, k: {"source_dim": 3}, "witness_source_dim"),
    (lambda w, k: {"target_dim": 2}, "witness_target_dim"),
    (lambda w, k: {"element": Matrix.zeros(k, w.element.rows, 1)}, "witness_nonzero_in_source"),
    (lambda w, k: {"image": Matrix.column(k, [k.one] * w.image.rows)}, "witness_zero_in_target"),
    (lambda w, k: {"surjective": False}, "witness_map_surjective"),
], ids=["source_dim", "target_dim", "zero_element", "nonzero_image", "not_surjective"])
def test_witness_checks_detect_each_corruption(k, corrupt, failing):
    w = noninjectivity_witness(k)
    bad = [r for r in replace(w, **corrupt(w, k)).checks if not r.ok]
    assert [r.name for r in bad] == [failing]
    if failing == "witness_zero_in_target":
        assert bad[0].counterexample == {"image": [k.to_str(k.one)] * w.image.rows}


def test_family_algebras_are_built_once_per_field(monkeypatch):
    # one algebra per family and field object, validated once; a new or
    # unpickled field builds its own, equal ones
    validated = []
    orig = genlab.validate_algebra
    monkeypatch.setattr(genlab, "validate_algebra", lambda a: validated.append(a) or orig(a))
    f = Field.prime(101)
    first = {}
    for seed in (20240601, 9):
        for inst in generate_corpus(CorpusProfile(field=f, instance_count=20, seed=seed)):
            assert first.setdefault(inst.family, inst.algebra) is inst.algebra
    assert len(first) > 3
    assert all(ALGEBRA_FAMILIES[family](f) is a for family, a in first.items())
    assert len(validated) == len(first)
    for g in (Field.prime(101), pickle.loads(pickle.dumps(f))):
        for family, a in first.items():
            b = ALGEBRA_FAMILIES[family](g)
            assert b is not a and b == a and b.field is g
            assert ALGEBRA_FAMILIES[family](g) is b
    assert len(validated) == 3 * len(first)
    # the constructors themselves build afresh
    assert make_exterior(f) is not make_exterior(f)


def test_corpus_instances_all_validate(k):
    prof = CorpusProfile(field=k, instance_count=25, seed=9)
    for inst in generate_corpus(prof):
        assert validate_module(inst.m) == []
        assert validate_module(inst.n) == []
        assert max(inst.m.dims.values()) <= prof.max_per_degree_dim
        assert max(inst.n.dims.values()) <= prof.max_per_degree_dim


def test_corpus_family_coverage(k):
    prof = CorpusProfile(field=k, instance_count=60, seed=5)
    corpus = generate_corpus(prof)
    fams = {inst.family for inst in corpus}
    # ordinary, graded-commutative, noncommutative and contractible all appear
    assert "exterior" in fams or "koszul_dg" in fams
    assert "upper_triangular" in fams
    assert "exterior_contractible" in fams
    assert fams & {"field", "dual_numbers", "truncated_poly3"}
    # zero-cohomology modules occur alongside cohomologically nontrivial pairs
    from dgkunneth.resolve import sup_cohomology
    zero_h = sum(1 for i in corpus
                 if sup_cohomology(i.m) is None or sup_cohomology(i.n) is None)
    both = sum(1 for i in corpus
               if sup_cohomology(i.m) is not None and sup_cohomology(i.n) is not None)
    assert zero_h > 0 and both > 0


def test_profile_validation():
    with pytest.raises(Exception):
        CorpusProfile(field=F101, instance_count=0)
    with pytest.raises(Exception):
        CorpusProfile(field=F101, family_mix={"nonsense": 1.0})
    with pytest.raises(Exception):
        CorpusProfile(field=F101, family_mix={"exterior": 0.0})
