"""Seeded inputs for the two workloads.

Every workload is a fixed list of *slots*; the seed only draws the
coefficients inside each slot.  A slot pins the properties that decide a
job's cost, so that two seeds give passes of the same cost:

- conjugation jobs pin the relative degree r of the extension the answer
  lives in (``landing_degree``), which decides which extension gets built;
- curve jobs pin the trace t = q + 1 - #E(F_q), which decides the group
  shapes and so how long group_structure samples points;
- reduce_to_quartic jobs are built from a known solution over the base
  field, so the search stops at r = 1 (bigger r costs tens of seconds);
- the other jobs cost the same for every coefficient.

Slots never hold a map that solve_conjugation refuses: the landing degree
is None for them (no solution up to relative degree 24).
"""

from __future__ import annotations

import random
from math import gcd

import f2dyn

CONJUGATION_BOUND = 24  # solve_conjugation's default max_relative_degree

# ladder rungs: (kind, degree, class, jobs) -- class is r for conjugate, the
# sign of t for curve (t = +sqrt(2q): E(F_{q^2}) is cyclic, no full scan).
# conjugate 12 costs 0.5-0.7 s depending on the coefficients, so it draws
# three of them and a pass's conjugate_s varies less from seed to seed.
LADDER = [
    ("orbits", 12, None, 1),
    ("orbits", 16, None, 1),
    ("curve", 7, +1, 1),
    ("curve", 9, +1, 1),
    ("conjugate", 8, 1, 1),
    ("conjugate", 12, 5, 3),
    ("bluher", 8, None, 1),
    ("bluher", 9, None, 1),
]

# Slot counts are set so that each analysis kind takes a steady share of a
# pass and the latency percentiles fall inside the closed_form jobs, a class
# of near-equal cost.

# (n, k, r, count): solve_conjugation landing in F_2^(n*r)
EXT_CONJUGATIONS = ((8, 2, 3, 4), (10, 2, 3, 4), (12, 2, 3, 4), (8, 3, 2, 4),
                    (10, 3, 2, 4), (8, 2, 5, 2), (10, 2, 5, 2), (12, 2, 5, 2))
# (n, k, count): reduce_to_quartic.  gcd(s_j, 2^n - 1) = 1 at these n, so c
# is unique and the reduction costs the same for every coefficient; with
# several candidate c the cost depends on which one solves first.
EXT_QUARTICS = ((40, 2, 2), (46, 4, 4), (54, 4, 4), (62, 4, 4), (43, 6, 4),
                (49, 6, 4), (61, 6, 4))
# (n, k, m): closed_form, m chosen for about 30 ms a job; twelve jobs each
EXT_CLOSED_FORMS = ((20, 1, 600), (24, 2, 500), (32, 2, 270), (32, 3, 270),
                    (48, 1, 140), (64, 2, 75))
# (n, k): root counts of x^(2^k+1) + x + a, two jobs each
EXT_ROOT_COUNTS = tuple((n, k) for n in (24, 32, 48, 64) for k in (2, 3, 4))


class Draw:
    """Seeded coefficient draws over the default fields."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self._fields: dict[int, f2dyn.BinaryField] = {}

    def field(self, n: int) -> f2dyn.BinaryField:
        if n not in self._fields:
            self._fields[n] = f2dyn.BinaryField(n)
        return self._fields[n]

    def element(self, n: int, nonzero: bool = False) -> int:
        return self.rng.randrange(1 if nonzero else 0, 1 << n)

    def pair(self, n: int) -> tuple[int, int]:
        return self.element(n, nonzero=True), self.element(n)

    def until(self, n: int, accept, what: str) -> tuple[int, int]:
        for _ in range(20000):
            a, b = self.pair(n)
            if accept(self.field(n).element(a), self.field(n).element(b)):
                return a, b
        raise RuntimeError(f"no coefficients found for {what}")


def landing_degree(a, b, k: int, bound: int = CONJUGATION_BOUND) -> int | None:
    """Relative degree of the extension where psi_{a,b,k} gets conjugated.

    c2 ranges over the roots of p(X) = X^(q+1) + b*X^q + a and c3 over the
    kernel of v(x) = a*x^(q^2) + b*x^q + x outside the kernel of
    u(x) = x + c2*x^q.  ker u is inside ker v, and the nonzero w with
    v(w) = 0 map g-to-one onto the roots c2 whose 1/c2 is a (q-1)-th power
    (those with |ker u| = g + 1, g = gcd(q - 1, 2^(nr) - 1)); for the other
    roots ker u = {0}.  So F_{2^(nr)} works exactly when both root counts
    P, V are positive and V > g or P > V/g.  Counts come from
    ExtensionRootCounter, so this never builds an extension.
    """
    field = a.field
    q = 1 << k
    zero, one = field.zero, field.one
    p_count = f2dyn.ExtensionRootCounter([a] + [zero] * (q - 1) + [b, one])
    v = [zero] * (q * q)
    v[0], v[q - 1], v[q * q - 1] = one, b, a
    v_count = f2dyn.ExtensionRootCounter(v)
    for r in range(1, bound + 1):
        p, w = p_count.count(r), v_count.count(r)
        if p and w:
            g = gcd(q - 1, (1 << (field.degree * r)) - 1)
            if w > g or p * g > w:
                return r
    return None


def curve_trace(a, b) -> int:
    """t = q + 1 - #E(F_q) for the curve behind x -> a*x^4 + b."""
    return a.field.order + 1 - f2dyn.point_count(f2dyn.curve_from_map(a, b))


def _map_job(kind, n, a, b, k, **extra):
    return dict(kind=kind, n=n, a=a, b=b, k=k, **extra)


def ladder(seed: int) -> list[dict]:
    draw = Draw("ladder", seed)
    jobs = []
    for kind, n, cls, count in LADDER:
        for _ in range(count):
            jobs.append(_ladder_job(draw, kind, n, cls))
    return jobs


def _ladder_job(draw: Draw, kind: str, n: int, cls) -> dict:
    argv = [kind, "--degree", str(n)]
    job = {"kind": kind, "n": n, "k": 2}
    if kind in ("orbits", "curve", "conjugate"):
        if kind == "conjugate":
            a, b = draw.until(n, lambda x, y: landing_degree(x, y, 2) == cls,
                              f"conjugate {n} at r={cls}")
        elif kind == "curve":
            t = cls * (1 << ((n + 1) // 2))  # +-sqrt(2q) for odd n
            a, b = draw.until(n, lambda x, y: curve_trace(x, y) == t,
                              f"curve {n} with t={t}")
        else:
            a, b = draw.pair(n)
        job.update(a=a, b=b, map="psi" if kind == "conjugate" else "theta")
        argv += ["--map", job["map"], "--a", hex(a), "--b", hex(b)]
    argv += ["--k", "2"]
    job["argv"] = argv
    return job


def _quartic_coefficients(draw: Draw, n: int, k: int) -> tuple[int, int]:
    """a = c^(s_j) and b = sum_i c^(s_i) * d^(4^i) for random c, d: the
    quartic map x -> c*x^4 + d, j times, is then theta_{a,b,k} (k = 2j)."""
    field = draw.field(n)
    c = field.element(draw.element(n, nonzero=True))
    d = field.element(draw.element(n))
    b, pow_c = field.zero, field.one
    for i in range(k // 2):
        b = b + pow_c * d.frob(2 * i)
        pow_c = pow_c.frob(2) * c
    return (c ** ((4 ** (k // 2) - 1) // 3)).bits, b.bits


def extensions(seed: int) -> list[dict]:
    draw = Draw("extensions", seed)
    jobs = []
    for n, k, r, count in EXT_CONJUGATIONS:
        for _ in range(count):
            a, b = draw.until(n, lambda x, y: landing_degree(x, y, k) == r,
                              f"conjugate {n} k={k} at r={r}")
            jobs.append(_map_job("conjugate", n, a, b, k, r=r))
    for n, k, count in EXT_QUARTICS:
        for _ in range(count):
            jobs.append(_map_job("quartic", n, *_quartic_coefficients(draw, n, k), k))
    for n, k, m in EXT_CLOSED_FORMS:
        for _ in range(12):
            jobs.append(_map_job("closed_form", n, *draw.pair(n), k, m=m))
    for n, k in EXT_ROOT_COUNTS:
        for _ in range(2):
            jobs.append(_map_job("root_count", n, draw.element(n, True), 0, k))
    draw.rng.shuffle(jobs)
    return jobs


GENERATORS = {"ladder": ladder, "extensions": extensions}


def generate(workload: str, seed: int) -> list[dict]:
    jobs = GENERATORS[workload](seed)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
