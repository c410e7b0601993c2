import pytest

from dgkunneth.checks import failed, passed
from dgkunneth.dgmodule import LEFT, validate_module
from dgkunneth.field import Field
from dgkunneth.genlab import (
    Instance,
    _instance_size,
    make_dual_numbers,
    regular_module,
    shrink_instance,
)
from dgkunneth.suite import _attach_shrunk
from dg_examples import make_koszul_like

F101 = Field.prime(101)


@pytest.fixture
def fat_instance():
    a = make_dual_numbers(F101)
    return Instance("fat", "dual_numbers", a,
                    make_koszul_like(F101, 3),
                    regular_module(a, LEFT))


def test_shrink_preserves_predicate_and_validity(fat_instance):
    def predicate(inst):
        return inst.m.total_dim() >= 4

    small = shrink_instance(fat_instance, predicate, budget=60)
    assert predicate(small)
    assert validate_module(small.m) == []
    assert validate_module(small.n) == []
    assert _instance_size(small) < _instance_size(fat_instance)


def test_shrink_returns_original_when_nothing_smaller_fails(fat_instance):
    small = shrink_instance(fat_instance, lambda inst: False, budget=30)
    assert small is fat_instance


def test_shrink_is_deterministic(fat_instance):
    def predicate(inst):
        return inst.m.total_dim() >= 3

    s1 = shrink_instance(fat_instance, predicate, budget=60)
    s2 = shrink_instance(fat_instance, predicate, budget=60)
    assert s1.m == s2.m and s1.n == s2.n


def test_attach_shrunk_embeds_smaller_instance(fat_instance):
    # a fake battery that fails while M is bigger than 2-dimensional
    def battery(inst):
        if inst.m.total_dim() > 2:
            return [failed("too_big", counterexample={"dim": inst.m.total_dim()})]
        return [passed("too_big")]

    results = battery(fat_instance)
    results = _attach_shrunk(results, fat_instance, battery)
    ce = results[0].counterexample
    assert "shrunk_instance" in ce
    dims = ce["shrunk_instance"]["m"]["dims"]
    assert sum(dims.values()) < fat_instance.m.total_dim()
    assert sum(dims.values()) > 2


def test_attach_shrunk_noop_on_pass(fat_instance):
    results = [passed("fine")]
    out = _attach_shrunk(results, fat_instance, lambda inst: [passed("fine")])
    assert out[0].counterexample is None
