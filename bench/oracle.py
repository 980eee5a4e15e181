"""Independent output oracle and the per-job checks.

``homology_of_target`` computes H_*(Y) of a map document from boundary
matrices built here and sympy's Smith normal form; it shares no code with
``icss.complexes`` or ``icss.intlinalg``.  It runs after the timed loop.

A job's output is first reduced to a small summary (``summarize``), so the
check sees plain data and the negative control can corrupt it.
"""

from __future__ import annotations

import copy

from inputs import closure

# E^1_{1,0} of the alternating sequence of folded_disc(m): the alternating
# H_0 of the double-point circle D^2, which carries the Z/2 of H_1(RP^2).
FOLD_E1_10 = (0, (2,))
FOLD_HOMOLOGY = [(1, ()), (0, (2,)), (0, ())]


def homology_of_target(doc: dict) -> list:
    """[(rank, torsion)] of H_n(Y) for n = 0 .. dim Y, over the integers."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    order = {v: i for i, v in enumerate(doc["y"]["vertices"])}
    faces = closure(tuple(sorted(s, key=order.__getitem__)) for s in doc["y"]["simplices"])
    by_dim: dict = {}
    for s in sorted(faces, key=lambda s: [order[v] for v in s]):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    factors = {}  # nonzero Smith diagonal of the boundary C_d -> C_{d-1}
    for d in range(1, top + 1):
        row_of = {s: i for i, s in enumerate(by_dim[d - 1])}
        entries = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                entries[row_of[s[:i] + s[i + 1:]]][j] = -1 if i % 2 else 1
        S = smith_normal_form(Matrix(entries), domain=ZZ)
        factors[d] = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0]
    out = []
    for n in range(top + 1):
        rank_in = len(factors.get(n, []))
        rank_out = len(factors.get(n + 1, []))
        torsion = tuple(sorted(x for x in factors.get(n + 1, []) if x > 1))
        out.append((len(by_dim[n]) - rank_in - rank_out, torsion))
    return out


def _group(g) -> tuple:
    return (g.rank, tuple(sorted(g.torsion)))


def summarize(job: str, result) -> dict:
    """Plain-data summary of one job's output."""
    if job == "run_all":
        return {
            "passed": [r.passed for r in result],
            "names": [r.name for r in result],
        }
    return {
        "converged": result.converged,
        "homology": [_group(d.total_homology) for d in result.degree_reports],
        "target": [_group(d.target_homology) for d in result.degree_reports],
        "e1": {(p, q): _group(g) for (r, p, q), g in result.pages if r == 1},
    }


def check(job: str, summary: dict, expected: list, headline: bool = False) -> list:
    """Reasons the summary is wrong (empty when it is right).

    ``expected`` is the oracle's H_*(Y); ``headline`` also demands the
    folded-disc page-one group E^1_{1,0} = Z/2.
    """
    if job == "run_all":
        if not summary["passed"]:
            return ["no verification reports"]
        return [
            f"check failed: {name}"
            for name, ok in zip(summary["names"], summary["passed"])
            if not ok
        ]
    problems = []
    if not summary["converged"]:
        problems.append("not converged")
    if summary["homology"] != expected:
        problems.append(f"H_* {summary['homology']} != oracle {expected}")
    if summary["target"] != expected:
        problems.append(f"target H_* {summary['target']} != oracle {expected}")
    if headline:
        if expected != FOLD_HOMOLOGY:
            problems.append(f"oracle gives {expected} for a folded disc")
        if summary["e1"].get((1, 0)) != FOLD_E1_10:
            problems.append(f"E^1_(1,0) = {summary['e1'].get((1, 0))}, not Z/2")
    return problems


def corrupted(job: str, summary: dict) -> dict:
    """The summary with one group (or one verification verdict) made wrong."""
    bad = copy.deepcopy(summary)
    if job == "run_all":
        bad["passed"][-1] = False
    else:
        rank, torsion = bad["homology"][-1]
        bad["homology"][-1] = (rank, torsion + (3,))
    return bad
