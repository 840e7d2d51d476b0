"""What every subcommand shares: the grading bookkeeping of the four cases,
the monomial grading check that `verify` runs before any switch, and the
named check verdicts each command reports.

Kept apart from `grading` and `loopalg`, so that a `verify` run executes
neither of them.  The grading check reads its kernel from `laws` when it
runs, so that `analyze`, which shares the rest, does not load the laws.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .dpalgebra import Heights, Monomial
from .liealg import AlgebraDescriptor


class GradingCase(enum.Enum):
    PRESWITCH_AZ = "preswitch-az"
    PRESWITCH_GH = "preswitch-gh"
    BIG_FIELD = "big-field"
    PRIME_FIELD = "prime-field"

    @property
    def is_switched(self) -> bool:
        """Whether a switch produces this grading (a label-indexed one)."""
        return self in (GradingCase.BIG_FIELD, GradingCase.PRIME_FIELD)


#: cases whose degree formula carries the pi-twist (a + j*pi)p^s
_TWISTED = (GradingCase.PRESWITCH_GH, GradingCase.PRIME_FIELD)


class Label(NamedTuple):
    j: int
    k: int
    a: int

    def text(self) -> str:
        return f"({self.j},{self.k},{self.a})"


class GradingSpec(NamedTuple("GradingSpec", [("case", GradingCase), ("heights", Heights),
                                              ("s", int), ("pi_residue", int)])):
    """Degree bookkeeping: case tag, exponent heights, step s, pi residue."""

    __slots__ = ()

    def __new__(cls, case: GradingCase, heights: Heights, s: int, pi_residue: int = 0):
        if s < 0:
            raise ValueError("s must be >= 0")
        if case is not GradingCase.PRESWITCH_AZ:
            if heights.n1 != s + 1:
                raise ValueError("label-indexed gradings need n1 = s + 1")
        return super().__new__(cls, case, heights, s, pi_residue)

    @property
    def p(self) -> int:
        return self.heights.p

    @property
    def q(self) -> int:
        return self.heights.q

    @property
    def N(self) -> int:
        if self.case is GradingCase.PRESWITCH_AZ:
            return self.heights.xbound * (self.q - 1)
        return self.p ** (self.s + 1) * (self.q - 1)

    @property
    def step(self) -> int:
        return self.p ** self.s

    def switched(self) -> "GradingSpec":
        """The spec of the grading a switch of this one produces:
        Albert-Zassenhaus switches over the big field and graded
        Hamiltonian over the prime field."""
        if self.case.is_switched:
            raise ValueError("switching starts from a pre-switch monomial grading")
        case = (GradingCase.BIG_FIELD if self.case is GradingCase.PRESWITCH_AZ
                else GradingCase.PRIME_FIELD)
        return GradingSpec(case, self.heights, self.s, self.pi_residue)

    def degree_of_label(self, lab: Label) -> int:
        j, k, a = lab
        shift = a + j * self.pi_residue if self.case in _TWISTED else a
        return ((1 - self.q) * (shift * self.step + k) - j) % self.N

    def degree_of_monomial(self, m: Monomial) -> int:
        if self.case is GradingCase.PRESWITCH_AZ:
            return ((1 - self.q) * (m.i - 1) - (m.j - 1)) % self.N
        return self.degree_of_label(self.label_of_monomial(m))

    def label_of_monomial(self, m: Monomial) -> Label:
        if self.heights.n1 != self.s + 1:
            raise ValueError("label conversion needs n1 = s + 1")
        a, r = divmod(m.i, self.step)
        return Label(m.j - 1, r - 1, a)

    def monomial_of_label(self, lab: Label) -> Monomial:
        return Monomial(lab.a * self.step + lab.k + 1, lab.j + 1)

    def labels(self):
        """All labels in ascending (j, k, a) order."""
        for j in range(-1, self.q - 1):
            for k in range(-1, self.step - 1):
                for a in range(self.p):
                    yield Label(j, k, a)


def monomial_grading_violations(descriptor: AlgebraDescriptor, spec: GradingSpec) -> list:
    """Monomial pairs whose bracket leaves the degree class of the degree sum:
    `additive_violations` of the degrees mod N on the integer structure
    constants, so it covers any heights, including configurations without a
    label chart.  Empty list means the monomial basis realizes the grading.
    """
    from . import laws
    basis = descriptor.basis
    deg = [spec.degree_of_monomial(m) for m in basis]
    return [(basis[a], basis[b])
            for a, b in laws.additive_violations([descriptor.table], deg, spec.N)]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: object = None
    informational: bool = False

    def to_json(self) -> dict:
        out: dict = {"pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.informational:
            out["informational"] = True
        return out


def checks_passed(checks: dict) -> bool:
    """Overall verdict of named CheckResults: informational ones do not count."""
    return all(c.passed for c in checks.values() if not c.informational)


def verdict_lines(checks: dict) -> list:
    """One "check name: tag" line per CheckResult, then the overall line."""
    lines = []
    for name, c in checks.items():
        tag = "pass" if c.passed else "FAIL"
        if c.informational:
            tag += " (informational)"
        lines.append(f"check {name}: {tag}")
    lines.append("overall: " + ("pass" if checks_passed(checks) else "FAIL"))
    return lines
