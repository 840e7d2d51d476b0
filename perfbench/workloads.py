"""The benchmark's workloads: one `thinlie` command line each.

A workload turns the run's seed into the argv of its k-th job.  Job 0 of
a run uses the variant the seed selects; later jobs of the same run step
through the other variants in turn, so every run of several jobs covers
the workload's inputs in the same proportions.  The program receives only
that argv.

Each workload also knows how to build the objects a user pays for before
any check runs (field, algebra descriptor and, for switched cases, the
closed graded basis); `child.py setup` does that in a fresh process to
time set-up.
"""

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    variants: int
    argv_of: Callable[[int], list]
    setup_of: Callable[[int], Callable]
    # side of the calibration kernel's table: about the square root of the
    # job's distinct structure-constant keys (liealg.bracket_mono.distinct_keys)
    memo_side: int

    def variant(self, seed: int, job: int) -> int:
        return (seed + job) % self.variants

    def argv(self, seed: int, job: int = 0) -> list:
        return self.argv_of(self.variant(seed, job))

    def all_argvs(self) -> list:
        return [self.argv_of(v) for v in range(self.variants)]


def _verify_heights(variant: int) -> tuple:
    """(n, n1): even seeds take n=2, n1=3 and odd seeds n=3, n1=2; dim 243."""
    return (2, 3) if variant == 0 else (3, 2)


def _verify_argv(variant: int) -> list:
    n, n1 = _verify_heights(variant)
    return ["verify", "--family", "albert-zassenhaus", "--p", "3",
            "--n", str(n), "--n1", str(n1)]


def _verify_setup(variant: int):
    def build():
        from thinlie import AlgebraDescriptor, Family, FieldParams, Heights
        n, n1 = _verify_heights(variant)
        field = FieldParams.prime(3)
        return AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, field, Heights(3, n1, n))
    return build


def _big_field_setup(p: int, n: int, s: int, c: int):
    """Field F_{p^p} = F_p[t]/(t^p - t - 1), pi = t + c, sigma = 1, closed basis."""
    def build():
        from thinlie import (AlgebraDescriptor, Family, FieldParams, GradingCase,
                             GradingSpec, Heights, SwitchConfig, build_closed_basis)
        modulus = tuple([p - 1, p - 1] + [0] * (p - 2) + [1])
        field = FieldParams(p, p, modulus)
        heights = Heights(p, s + 1, n)
        desc = AlgebraDescriptor(Family.ALBERT_ZASSENHAUS, field, heights)
        pi = field.parse_element(f"t+{c}")
        cfg = SwitchConfig(field, field.one(), pi, s)
        spec = GradingSpec(GradingCase.BIG_FIELD, heights, s, 0)
        return build_closed_basis(desc, spec, cfg)
    return build


def _switch_argv(c: int) -> list:
    return ["switch", "--case", "big-field", "--p", "3", "--n", "2", "--s", "2",
            "--pi", f"t+{c}"]


def _analyze_argv(c: int) -> list:
    return ["analyze", "--case", "big-field", "--p", "5", "--n", "1", "--s", "0",
            "--max-degree", "45", "--pi", f"t+{c}"]


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-az243", 2, _verify_argv, _verify_setup, 243),
        Workload("switch-big243", 3, _switch_argv,
                 lambda c: _big_field_setup(3, 2, 2, c), 243),
        Workload("analyze-big3125", 5, _analyze_argv,
                 lambda c: _big_field_setup(5, 1, 0, c), 16),
    )
}
