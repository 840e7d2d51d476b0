"""Host-speed calibration for the end-to-end times.

On a shared host the speed of one core drifts by half or more over minutes,
as neighbours come and go; a job measured in a slow minute reads slow no
matter what the program does.  The benchmark therefore stops each job
every second or two, runs this fixed kernel on the job's CPU while the job
stands still, and scales the job's times by

    REFERENCE_S / median(kernel seconds of the samples taken during the job)

(set-up times by the median over the run), so that a time reads in
seconds at the host speed at which the kernel takes REFERENCE_S.  The
kernel does not touch thinlie, so a faster or slower program moves the
scaled times exactly as it moves the raw ones; only the host's speed
cancels.  It is written in thinlie's idiom, because code of
another shape slows down differently when the host is busy: a memo of
structure constants keyed by pairs of NamedTuples and read through a method
(the Jacobi loop of verify), sparse accumulation of field-element objects
with `__slots__` and operator overloading (bracket in switch and analyze),
and a plain dict of tuple keys read in scattered order.  That dict is as
large as the workload's memo of structure constants (59k keys for verify
and switch, a few hundred for analyze), because a busy host slows code with
a large working set far more than code that stays in cache: with one 59k
kernel for all, analyze's scaled spread was worse than its raw one.
Changing the kernel or REFERENCE_S changes every reported time, so neither
may change without measuring the baseline again.
"""

import time
from typing import NamedTuple

# About the kernel's time on the baseline host (2-core Intel Xeon, Python
# 3.11.7) in its quiet minutes; it only fixes the unit of reported times.
REFERENCE_S = 0.15

_P = 5


class _Mono(NamedTuple):
    i: int
    j: int


class _Memo:
    def __init__(self, n: int):
        self.n = n
        self._table: dict = {}

    def get(self, a: _Mono, b: _Mono):
        key = (a, b)
        try:
            return self._table[key]
        except KeyError:
            out = self._raw(a, b)
            self._table[key] = out
            return out

    def _raw(self, a: _Mono, b: _Mono):
        c = (a.i * b.j - a.j * b.i) % _P
        if c == 0:
            return None
        return c, _Mono((a.i + b.i) % self.n, (a.j + b.j) % self.n)


class _Elt:
    """An element of F_5[t]/(t^5 - t - 1) as a coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @staticmethod
    def _coerce(o):
        return o if isinstance(o, _Elt) else _Elt([o % _P, 0, 0, 0, 0])

    def __add__(self, o):
        o = self._coerce(o)
        return _Elt((a + b) % _P for a, b in zip(self.coeffs, o.coeffs))

    def __mul__(self, o):
        o = self._coerce(o)
        prod = [0] * 9
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(o.coeffs):
                    prod[i + j] += x * y
        for k in range(8, 4, -1):  # t^k = t^(k-4) + t^(k-5)
            prod[k - 4] += prod[k]
            prod[k - 5] += prod[k]
        return _Elt(c % _P for c in prod[:5])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def kernel(side: int) -> int:
    """One pass; `side` sets the working set, as in Workload.memo_side."""
    n = 9
    basis = [_Mono(i, j) for i in range(n) for j in range(n)]
    table = _Memo(n).get
    out = 0

    def step(u, v, w, acc):
        uv = table(u, v)
        if uv is None:
            return
        c, m = uv
        mw = table(m, w)
        if mw is None:
            return
        acc[mw[1]] = (acc.get(mw[1], 0) + c * mw[0]) % _P

    for ia in range(0, len(basis), 2):
        for ib in range(ia + 1, len(basis), 3):
            for ic in range(ib + 1, len(basis), 3):
                a, b, c = basis[ia], basis[ib], basis[ic]
                acc: dict = {}
                step(a, b, c, acc)
                step(b, c, a, acc)
                step(c, a, b, acc)
                out += any(v % _P for v in acc.values())

    u = {m: _Elt((m.i + 2 * m.j + k) % _P for k in range(5)) for m in basis[:40]}
    v = {m: _Elt((3 * m.i + m.j + k) % _P for k in range(5)) for m in basis[20:60]}
    for _ in range(3):
        terms: dict = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                hit = table(m1, m2)
                if hit is None:
                    continue
                k, mono = hit
                c = c1 * c2 * k
                prev = terms.get(mono)
                c = c if prev is None else prev + c
                if c.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = c
        out += len(terms)

    # side * side tuple keys, read 2 * 243^2 times in scattered order
    flat = {(i, j): (i * j + 1) % _P for i in range(side) for j in range(side)}
    for r in range(2 * 243 * 243 // (side * side)):
        for i in range(side):
            row = (i * 31 + r) % side
            for j in range(side):
                out += flat[(row, (j * 17 + i) % side)]
    return out


def sample(side: int) -> float:
    t0 = time.perf_counter()
    kernel(side)
    return time.perf_counter() - t0
