"""Seeded input maps for the benchmark, as icss map-document payloads.

Every map is built here as the JSON object that ``icss.io.parse_map`` reads
(``{"x": ..., "y": ..., "map": ...}``) and reaches the program only through
``icss.io``.  Nothing here calls ``icss.fixtures``, so the inputs stay the
same when that module changes.  The five named fixtures are frozen in
``named_maps.json`` as ``icss fixtures <name>`` emitted them.

The cost of every job grows with the sizes of the fibre products,
``#q-simplices of W^k = sum over q-simplices d of Y of N_d^k``, where ``N_d``
is the number of lifts of ``d``.  The random generator therefore fixes the
*lift profile* (how many Y-simplices of each dimension have each lift count)
and lets the seed choose everything else: which simplices, which vertices
merge, and the vertex order.  Every seed then gives the same W^k sizes.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from pathlib import Path

NAMED_MAPS = json.loads(Path(__file__).with_name("named_maps.json").read_text())


def closure(maximal) -> set:
    """All nonempty faces of the given simplices (tuples)."""
    out = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return out


def payload(x_vertices, x_simplices, y_vertices, y_simplices, vertex_map) -> dict:
    return {
        "x": {"vertices": list(x_vertices), "simplices": [list(s) for s in x_simplices]},
        "y": {"vertices": list(y_vertices), "simplices": [list(s) for s in y_simplices]},
        "map": dict(vertex_map),
    }


def folded_disc(m: int) -> dict:
    """Annulus-plus-cone disc whose boundary 2m-gon folds antipodally onto
    an m-gon; the image is a projective plane.

    X has 4m+1 vertices (boundary b_i, inner ring u_i, apex c) and 20m+1
    simplices; every simplex over the folded m-gon has exactly 2 lifts.
    """
    if m < 3:
        raise ValueError("folded_disc needs m >= 3")
    n = 2 * m
    b = [f"b{i}" for i in range(n)]
    u = [f"u{i}" for i in range(n)]
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces += [(b[i], b[j], u[i]), (b[j], u[i], u[j]), (u[i], u[j], "c")]
    image = {b[i]: f"a{i % m}" for i in range(n)}
    image.update({v: v for v in u + ["c"]})
    y_faces = sorted({tuple(sorted(image[v] for v in s)) for s in faces})
    return payload(
        b + u + ["c"], faces, [f"a{i}" for i in range(m)] + u + ["c"], y_faces, image
    )


def lift_counts(doc: dict) -> Counter:
    """Number of lifts of every simplex of Y (keyed by sorted name tuples)."""
    vmap = doc["map"]
    return Counter(
        tuple(sorted(vmap[v] for v in s)) for s in closure(doc["x"]["simplices"])
    )


def lift_profile(doc: dict) -> dict:
    """{(dimension, lift count): number of Y-simplices} of a map document."""
    return dict(Counter((len(d) - 1, n) for d, n in lift_counts(doc).items()))


def w_size(doc: dict, k: int, distinct: bool = False) -> int:
    """Simplices of W^k (or of D^k with ``distinct``) predicted from the lifts."""
    total = 0
    for n in lift_counts(doc).values():
        if distinct:
            total += 0 if n < k else _falling(n, k)
        else:
            total += n**k
    return total


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _quotient_candidate(rng, n_vertices, n_triangles, n_edges, max_lifts, merges):
    """A random complex on n_vertices and a quotient that merges vertex
    classes sharing no edge, keeping every simplex at <= max_lifts lifts."""
    triangles, edges = set(), set()
    while len(triangles) < n_triangles:
        triangles.add(tuple(sorted(rng.sample(range(n_vertices), 3))))
    while len(edges) < n_edges:
        edges.add(tuple(sorted(rng.sample(range(n_vertices), 2))))
    maximal = triangles | edges | {(v,) for v in range(n_vertices)}
    faces = closure(maximal)
    adjacent = {(a, b) for s in faces if len(s) == 2 for a, b in (s, s[::-1])}
    cls = list(range(n_vertices))
    for _ in range(merges):
        ids = sorted(set(cls))
        pairs = [(a, b) for a in ids for b in ids if a < b]
        rng.shuffle(pairs)
        for a, b in pairs:
            members_a = [v for v in range(n_vertices) if cls[v] == a]
            members_b = [v for v in range(n_vertices) if cls[v] == b]
            if any((x, y) in adjacent for x in members_a for y in members_b):
                continue
            trial = [a if c == b else c for c in cls]
            lifts = Counter(tuple(sorted(trial[v] for v in s)) for s in faces)
            if max(lifts.values()) <= max_lifts:
                cls = trial
                break
    return maximal, cls


def random_quotient(
    rng: random.Random,
    n_vertices: int,
    n_triangles: int,
    n_edges: int,
    max_lifts: int,
    merges: int,
    profile: dict,
    draws: int,
) -> dict:
    """Seeded random quotient map with exactly the given lift profile.

    Draws ``draws`` quotients of random complexes (``n_triangles`` triangles
    and ``n_edges`` extra edges on ``n_vertices`` vertices, up to ``merges``
    merges of edge-free vertex classes, no simplex over ``max_lifts`` lifts)
    and returns a random one of those with the lift profile ``profile``.
    The fixed number of draws keeps the generation time, part of the
    benchmark's set-up time, the same for every seed; only when no draw
    matches does it draw on.
    """
    names = [f"x{v}" for v in range(n_vertices)]
    matches = []
    for attempt in itertools.count():
        if matches and attempt >= draws:
            return rng.choice(matches)
        if attempt >= 100 * draws:
            raise RuntimeError(f"no quotient with lift profile {profile} in {attempt} draws")
        maximal, cls = _quotient_candidate(
            rng, n_vertices, n_triangles, n_edges, max_lifts, merges
        )
        vmap = {names[v]: f"y{cls[v]}" for v in range(n_vertices)}
        y_max = {tuple(sorted({vmap[names[v]] for v in s})) for s in maximal}
        doc = payload(
            names,
            [[names[v] for v in s] for s in sorted(maximal, key=lambda s: (len(s), s))],
            sorted(set(vmap.values())),
            sorted(y_max),
            vmap,
        )
        if lift_profile(doc) == profile:
            matches.append(doc)


def shuffled(doc: dict, rng: random.Random) -> dict:
    """The same map with its vertex and simplex orders permuted."""
    out = json.loads(json.dumps(doc))
    for side in ("x", "y"):
        rng.shuffle(out[side]["vertices"])
        rng.shuffle(out[side]["simplices"])
    return out
