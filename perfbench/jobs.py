"""Library jobs of the extensions workload, and the oracles that check every
job's answer (the ladder's CLI reports too) by a route independent of the
one that answered.

Jobs reach the package only through ``f2dyn.<name>`` for names in
``f2dyn.__all__``, looked up at call time so that a traced run sees the
tracer's wrappers.  Each job returns its document (rendered with
``f2dyn.to_json``) and the objects its check needs.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from math import gcd

import f2dyn

# analysis kind each job reports under (the end-to-end <kind>_s metrics)
KIND = {"closed_form": "orbits", "quartic": "curve", "conjugate": "conjugate",
        "root_count": "bluher"}
SAMPLES = 3  # cycles or points checked per job


class Context:
    """Base fields shared by the jobs of one pass, built on first use."""

    def __init__(self):
        self._fields: dict[int, f2dyn.BinaryField] = {}

    def field(self, n: int) -> f2dyn.BinaryField:
        if n not in self._fields:
            self._fields[n] = f2dyn.BinaryField(n)
        return self._fields[n]

    def coefficients(self, job):
        field = self.field(job["n"])
        return field, field.element(job["a"]), field.element(job["b"])


def _hexes(**elements) -> dict:
    return {name: e.hex for name, e in elements.items()}


# -- jobs ---------------------------------------------------------------------------


def run_conjugate(ctx, job):
    _, a, b = ctx.coefficients(job)
    data = f2dyn.solve_conjugation(f2dyn.MapSpec("psi", a, b, job["k"]))
    doc = {"extension_degree": data.ext_degree,
           **_hexes(c=data.c, c1=data.c1, c2=data.c2, c3=data.c3)}
    return f2dyn.to_json(doc), data


def run_quartic(ctx, job):
    _, a, b = ctx.coefficients(job)
    red = f2dyn.reduce_to_quartic(a, b, job["k"])
    doc = {"relative_degree": red.embedding.relative_degree, "j": red.j,
           "parity": red.parity, **_hexes(c=red.c, d=red.d)}
    return f2dyn.to_json(doc), red


def run_closed_form(ctx, job):
    _, a, b = ctx.coefficients(job)
    it = f2dyn.closed_form(a, b, 1 << job["k"], job["m"])
    return f2dyn.to_json(_hexes(lead=it.lead, tail=it.tail)), it


def _root_count_poly(field, a, k):
    """Coefficients of x^(2^k + 1) + x + a, lowest degree first."""
    coeffs = [field.zero] * ((1 << k) + 2)
    coeffs[0], coeffs[1], coeffs[-1] = a, field.one, field.one
    return coeffs


def run_root_count(ctx, job):
    field, a, _ = ctx.coefficients(job)
    counter = f2dyn.ExtensionRootCounter(_root_count_poly(field, a, job["k"]))
    count = counter.count(1)
    return f2dyn.to_json({"count": count}), count


RUN = {"conjugate": run_conjugate, "quartic": run_quartic,
       "closed_form": run_closed_form, "root_count": run_root_count}


def run(ctx, job):
    return RUN[job["kind"]](ctx, job)


# -- oracles ------------------------------------------------------------------------


def fixed_point_roots(field, a, b, k) -> int:
    """Fixed points of x -> 1/(a*x^q + b) on P^1 are the roots of
    a*x^(q+1) + b*x + 1 (infinity maps to 0, 0 to 1/b)."""
    q = 1 << k
    coeffs = [field.zero] * (q + 2)
    coeffs[0], coeffs[1], coeffs[q + 1] = field.one, b, a
    return f2dyn.ExtensionRootCounter(coeffs).count(1)


def bluher_roots(field, a, k) -> int:
    return f2dyn.ExtensionRootCounter(_root_count_poly(field, a, k)).count(1)


def check_partition(field, cycles) -> str | None:
    """The cycles must cover the 2^n + 1 points of P^1, each once."""
    points = [p for cyc in cycles for p in cyc]
    if len(points) != field.order + 1 or len(set(points)) != len(points):
        return f"cycles cover {len(set(points))} distinct of {len(points)} " \
               f"listed points, want {field.order + 1}"
    return None


def check_closure(rng, a, b, k, cycles) -> str | None:
    """A sample of theta cycles closes under closed_form(a, b, q, length):
    the length-th iterate, computed in one step, fixes each sampled point."""
    finite = [c for c in cycles if c[0] is not None]
    for cyc in rng.sample(finite, min(SAMPLES, len(finite))):
        it = f2dyn.closed_form(a, b, 1 << k, len(cyc))
        if it.eval(cyc[0]) != cyc[0]:
            return f"cycle of length {len(cyc)} does not close"
        nxt = cyc[1] if len(cyc) > 1 else cyc[0]
        if nxt is not None and a * cyc[0].frob(k) + b != nxt:
            return "consecutive cycle points are not one map step apart"
    return None


def check_conjugation_points(rng, data) -> str | None:
    """psi(tau(x)) = tau(theta(x)) at infinity, 0 and random points."""
    ext = data.embedding.ext
    tau = f2dyn.TauMap(data)
    psi, theta = data.embedded_map(), data.normal_form()
    points = [f2dyn.ProjPoint.infinity(ext), f2dyn.ProjPoint.finite(ext.zero)]
    points += [f2dyn.ProjPoint.finite(ext.element(rng.randrange(ext.order)))
               for _ in range(SAMPLES)]
    for x in points:
        if psi.eval(tau.eval(x)) != tau.eval(theta.eval(x)):
            return f"psi(tau(x)) != tau(theta(x)) at {x!r}"
    return None


def _check_conjugate(ctx, job, rng, data):
    if data.embedding.relative_degree != job["r"]:
        return f"conjugated over relative degree " \
               f"{data.embedding.relative_degree}, expected {job['r']}"
    return check_conjugation_points(rng, data)


def _check_quartic(ctx, job, rng, red):
    """For even k, j quartic steps x -> c*x^4 + d equal one step of theta."""
    field, a, b = ctx.coefficients(job)
    emb, k = red.embedding, job["k"]
    for _ in range(SAMPLES):
        x = field.element(rng.randrange(field.order))
        want = a * x.frob(k) + b
        cur = emb(x)
        for _ in range(red.j):
            cur = red.c * cur.frob(2) + red.d
        if cur != emb(want):
            return f"quartic identity fails at {x!r}"
    return None


def _check_closed_form(ctx, job, rng, it):
    field, a, b = ctx.coefficients(job)
    q, m = 1 << job["k"], job["m"]
    m1 = rng.randrange(1, m)
    first = f2dyn.closed_form(a, b, q, m1)
    second = f2dyn.closed_form(a, b, q, m - m1)
    for _ in range(SAMPLES):
        x = field.element(rng.randrange(field.order))
        if it.eval(x) != second.eval(first.eval(x)):
            return f"closed_form({m}) != closed_form({m - m1}) o " \
                   f"closed_form({m1}) at {x!r}"
    return None


def _check_root_count(ctx, job, rng, count):
    field, a, _ = ctx.coefficients(job)
    k, n = job["k"], job["n"]
    allowed = {0, 1, 2, (1 << gcd(k, n)) + 1}
    if count not in allowed:
        return f"count {count} outside {sorted(allowed)}"
    roots = f2dyn.polynomial_roots(_root_count_poly(field, a, k))
    if any(x * x.frob(k) + x + a for x in roots):
        return "polynomial_roots returned a non-root"
    if len(roots) != count:
        return f"count {count}, polynomial_roots found {len(roots)}"
    return None


CHECK = {"conjugate": _check_conjugate, "quartic": _check_quartic,
         "closed_form": _check_closed_form, "root_count": _check_root_count}


def check(ctx, job, answer, seed: int) -> str | None:
    """None when the answer passes its oracle, else what went wrong."""
    rng = random.Random(f"check:{seed}:{job['id']}")
    return CHECK[job["kind"]](ctx, job, rng, answer)


# -- ladder: checks on the CLI's text reports ----------------------------------------


def _line_value(lines, key: str) -> str:
    for line in lines:
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    raise ValueError(f"report has no {key!r} line")


def _label_element(field, label: str):
    if label == "inf":
        return None
    if label == "0":
        return field.zero
    if label.startswith("g^"):
        return field.primitive_element() ** int(label[2:])
    return field.element(int(label, 16))


def check_ladder(job, text: str, seed: int) -> str | None:
    """Check one CLI report against an oracle that does not use the route
    the CLI took; None when it passes."""
    rng = random.Random(f"check:{seed}:{job['id']}")
    field = f2dyn.BinaryField(job["n"])
    lines = text.splitlines()
    kind = job["kind"]
    if kind == "orbits":
        a, b = field.element(job["a"]), field.element(job["b"])
        cycles = [tuple(_label_element(field, s)
                        for s in line.strip()[1:-1].split(" -> "))
                  for line in lines if line.startswith("  (")]
        return check_partition(field, cycles) or check_closure(
            rng, a, b, job["k"], cycles)
    if kind == "curve":
        predicted = set(ast.literal_eval(_line_value(lines, "predicted lengths")))
        observed = set(ast.literal_eval(_line_value(lines, "observed lengths")))
        if not observed <= predicted:
            return f"observed lengths {sorted(observed - predicted)} not predicted"
        return None
    if kind == "conjugate":
        a, b = field.element(job["a"]), field.element(job["b"])
        got = int(_line_value(lines, "fixed_point_count"))
        want = fixed_point_roots(field, a, b, job["k"])
        return None if got == want else \
            f"fixed_point_count {got}, a*x^(q+1)+b*x+1 has {want} roots"
    if kind == "bluher":
        got = ast.literal_eval(_line_value(lines, "histogram"))
        want = Counter(bluher_roots(field, field.element(x), job["k"])
                       for x in range(1, field.order))
        want = {str(c): n for c, n in sorted(want.items())}
        return None if got == want else f"histogram {got}, root counter {want}"
    raise ValueError(f"unknown ladder kind {kind!r}")
