"""The validated frozen records FieldParams, Heights and GradingSpec:
input checks, immutability, value equality and hashing, repr, and the
constructor forms their callers use."""

import importlib.util
from pathlib import Path

import pytest

from thinlie.dpalgebra import Heights
from thinlie.ffield import FieldParams
from thinlie.grading import GradingCase, GradingSpec

ROOT = Path(__file__).parents[1]

BUILDERS = {
    "FieldParams": lambda: FieldParams(3, 3, (2, 2, 0, 1)),
    "Heights": lambda: Heights(3, 2, 3),
    "GradingSpec": lambda: GradingSpec(GradingCase.BIG_FIELD, Heights(3, 2, 3), 1, 2),
}

INVALID = [
    (lambda: FieldParams(4, 1, (0, 1)), "p must be an odd prime >= 3, got 4"),
    (lambda: FieldParams(3, 0, (1,)), "extension degree must be >= 1"),
    (lambda: FieldParams(3, 2, (1, 0, 2)), "modulus must be monic of degree m"),
    (lambda: FieldParams(3, 1, (3, 1)), "modulus coefficients must be reduced mod p"),
    (lambda: FieldParams(3, 2, (0, 0, 1)), "modulus (0, 0, 1) is reducible over F_3"),
    (lambda: Heights(2, 1, 1), "p must be an odd prime >= 3, got 2"),
    (lambda: Heights(3, 0, 1), "heights must be >= 1"),
    (lambda: Heights(3, 1, 0), "heights must be >= 1"),
    (lambda: GradingSpec(GradingCase.PRESWITCH_AZ, Heights(3, 1, 1), -1), "s must be >= 0"),
    (lambda: GradingSpec(GradingCase.BIG_FIELD, Heights(3, 1, 1), 1),
     "label-indexed gradings need n1 = s + 1"),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_invalid_input_raises(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_cannot_be_assigned(name):
    rec = BUILDERS[name]()
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_values_are_equal_keys(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: name}[b] == name


def test_repr_and_defaults():
    assert repr(Heights(3, 2, 3)) == "Heights(p=3, n1=2, n2=3)"
    assert repr(FieldParams.prime(5)) == "FieldParams(p=5, m=1, modulus=(0, 1))"
    spec = GradingSpec(GradingCase.PRESWITCH_AZ, Heights(3, 1, 1), 0)
    assert spec.pi_residue == 0
    assert spec == GradingSpec(case=GradingCase.PRESWITCH_AZ, heights=Heights(p=3, n1=1, n2=1),
                               s=0, pi_residue=0)


def test_t_powers_computed_once_per_instance(monkeypatch):
    from thinlie import ffield
    field, other = FieldParams(5, 5, (4, 4, 0, 0, 0, 1)), FieldParams(5, 5, (4, 4, 0, 0, 0, 1))
    calls = []
    pdivmod = ffield._pdivmod
    monkeypatch.setattr(ffield, "_pdivmod", lambda *a: calls.append(a) or pdivmod(*a))
    first = field.t_powers
    assert len(calls) == 2 * field.m - 1
    assert field.t_powers is first
    assert len(calls) == 2 * field.m - 1
    assert other.t_powers == first and len(calls) == 2 * (2 * field.m - 1)


def test_benchmark_setups_build():
    """Every variant's set-up in perfbench/workloads.py, which builds these
    records positionally, still runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for wl in workloads.WORKLOADS.values():
        for variant in range(wl.variants):
            assert wl.setup_of(variant)() is not None
