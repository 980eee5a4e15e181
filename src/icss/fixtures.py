"""Built-in simplicial maps used as test subjects.

Each builder returns a validated finite surjective simplicial map.  The
random builder quotients a random small complex by merging vertex classes
that never share a simplex, which keeps the quotient map finite-to-one.
"""

from __future__ import annotations

import random

from .complexes import SimplicialMap, build_complex
from .errors import UnknownFixture


def identity_fixture() -> SimplicialMap:
    """Identity on the boundary of a triangle (a circle)."""
    X = build_complex([(0, 1), (1, 2), (0, 2)])
    return SimplicialMap(X, X, {0: 0, 1: 1, 2: 2})


def fold_fixture() -> SimplicialMap:
    """A path folded onto a single edge; the two endpoints become double
    points of the map."""
    X = build_complex([("m", "z"), ("z", "p")], labels=["m", "z", "p"])
    Y = build_complex([("a", "b")], labels=["a", "b"])
    return SimplicialMap(X, Y, {0: 1, 1: 0, 2: 1})


def double_cover_fixture() -> SimplicialMap:
    """Two points mapping to one point."""
    X = build_complex([("a",), ("b",)], labels=["a", "b"])
    Y = build_complex([("pt",)], labels=["pt"])
    return SimplicialMap(X, Y, {0: 0, 1: 0})


def figure_eight_fixture() -> SimplicialMap:
    """A hexagonal circle with two opposite vertices identified; the image
    is a wedge of two circles."""
    X = build_complex(
        [(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)],
        labels=[f"v{i}" for i in range(6)],
    )
    labels_y = ["w", "a1", "a2", "b1", "b2"]
    Y = build_complex(
        [("w", "a1"), ("a1", "a2"), ("a2", "w"), ("w", "b1"), ("b1", "b2"), ("b2", "w")],
        labels=labels_y,
    )
    vmap = {0: 0, 1: 1, 2: 2, 3: 0, 4: 3, 5: 4}
    return SimplicialMap(X, Y, vmap)


def disc_to_rp2_fixture() -> SimplicialMap:
    """A triangulated disc whose boundary hexagon is folded by the antipodal
    identification; the image is a 6-vertex projective plane and the double
    point space is a circle with a free involution."""
    labels_x = [f"b{i}" for i in range(6)] + ["u0", "u1", "u2"]
    faces = [
        ("b0", "b1", "u0"),
        ("b1", "b2", "u0"),
        ("b2", "u0", "u1"),
        ("b2", "b3", "u1"),
        ("b3", "b4", "u1"),
        ("b4", "u1", "u2"),
        ("b4", "b5", "u2"),
        ("b5", "b0", "u2"),
        ("b0", "u2", "u0"),
        ("u0", "u1", "u2"),
    ]
    X = build_complex(faces, labels=labels_x)
    labels_y = ["c0", "c1", "c2", "u0", "u1", "u2"]
    image = {f"b{i}": f"c{i % 3}" for i in range(6)}
    image.update({u: u for u in ("u0", "u1", "u2")})
    y_faces = sorted({tuple(sorted(image[v] for v in s)) for s in faces})
    Y = build_complex(y_faces, labels=labels_y)
    vmap = {
        X.label_index[lab]: Y.label_index[image[lab]] for lab in labels_x
    }
    return SimplicialMap(X, Y, vmap)


def random_fixture(seed: int = 0) -> SimplicialMap:
    """Quotient of a random small complex by merging independent vertices."""
    rng = random.Random(seed)
    n = rng.randint(5, 7)
    maximal = set()
    for _ in range(rng.randint(2, 4)):
        maximal.add(tuple(sorted(rng.sample(range(n), 3))))
    for _ in range(rng.randint(1, 3)):
        maximal.add(tuple(sorted(rng.sample(range(n), 2))))
    for v in range(n):
        maximal.add((v,))  # keep every vertex in play
    X = build_complex(sorted(maximal, key=lambda s: (len(s), s)))

    adjacent = {pair for a, b in X.simplices(1) for pair in ((a, b), (b, a))}
    classes = [{v} for v in range(n)]
    for _ in range(rng.randint(1, 3)):
        rng.shuffle(classes)
        merged = False
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if not any(
                    (a, b) in adjacent for a in classes[i] for b in classes[j]
                ):
                    classes[i] |= classes[j]
                    del classes[j]
                    merged = True
                    break
            if merged:
                break
    classes.sort(key=min)
    vmap = {v: c for c, members in enumerate(classes) for v in members}
    Y = build_complex({tuple(sorted({vmap[v] for v in s})) for s in X.maximal_simplices()})
    return SimplicialMap(X, Y, vmap)


FIXTURES = {
    "identity": identity_fixture,
    "fold": fold_fixture,
    "double_cover": double_cover_fixture,
    "figure_eight": figure_eight_fixture,
    "disc_to_rp2": disc_to_rp2_fixture,
    "random": random_fixture,
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def get_fixture(name: str, seed=None) -> SimplicialMap:
    if name not in FIXTURES:
        raise UnknownFixture(f"no fixture named {name!r}")
    if name == "random":
        return random_fixture(0 if seed is None else seed)
    return FIXTURES[name]()
