"""JSON input documents and report serialization.

A map document is a single JSON object::

    {"x": {"vertices": [...], "simplices": [[...], ...]},
     "y": {"vertices": [...], "simplices": [[...], ...]},
     "map": {"x-vertex": "y-vertex", ...},
     "metadata": {...}}           # optional

Vertex names are strings; the vertex order of each complex is the input
order and simplices are lists of vertex names.  The canonical form lists the
given simplices that are no face of another and each vertex in none, which
``emit_map`` writes as ``json.dumps(..., indent=2)`` would.  A document built
through the API with a fault gets ``parse_map``'s ``ParseError``.  Reports
serialize to a human-readable table or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .complexes import SimplicialMap, build_complex, index_simplices, maximal_faces
from .errors import ParseError
from .intlinalg import HomologyGroup

# what a lookup in an inconsistent document raises before it is named
_FAULTS = (AttributeError, LookupError, TypeError, ValueError)


@dataclass
class MapDocument:
    x_vertices: list
    x_simplices: list
    y_vertices: list
    y_simplices: list
    vertex_map: dict
    metadata: dict = field(default_factory=dict)

    def to_simplicial_map(self) -> SimplicialMap:
        try:
            X = build_complex(self.x_simplices, labels=self.x_vertices)
            Y = build_complex(self.y_simplices, labels=self.y_vertices)
            images = map(Y.label_index.__getitem__, map(self.vertex_map.__getitem__, X.labels))
            vmap = dict(enumerate(images))
        except _FAULTS:
            self._refuse()
            raise
        return SimplicialMap(X, Y, vmap)

    def canonical(self) -> "MapDocument":
        """Vertex order kept; simplices replaced by the given ones that are no
        proper face of another and each vertex in none, by dimension and
        vertex order.  A fault gives parse_map's ParseError."""
        try:
            xv, yv = list(self.x_vertices), list(self.y_vertices)
            vmap = dict(zip(xv, map(self.vertex_map.__getitem__, xv)))
            if not set(yv).issuperset(vmap.values()):
                raise KeyError("unknown target vertex")
            xs, ys = _canonical_side(xv, self.x_simplices), _canonical_side(yv, self.y_simplices)
        except _FAULTS:
            self._refuse()
            raise
        return MapDocument(xv, xs, yv, ys, vmap, dict(self.metadata))

    def _refuse(self):
        """Raise parse_map's ParseError for this document's first fault."""
        _check_side({"vertices": self.x_vertices, "simplices": self.x_simplices}, "x")
        _check_side({"vertices": self.y_vertices, "simplices": self.y_simplices}, "y")
        _check_map(self.vertex_map, self.x_vertices, self.y_vertices)


def _canonical_side(vertices, simplices) -> list:
    n_vertices, tops = index_simplices(simplices, labels=vertices)
    tops.extend(zip(set(range(n_vertices)).difference(chain.from_iterable(tops))))
    return list(map(list, map(map, repeat(vertices.__getitem__), maximal_faces(tops))))


def _check_side(obj, side: str) -> tuple:
    if not isinstance(obj, dict):
        raise ParseError(f"{side}: expected an object with vertices and simplices")
    vertices, simplices = obj.get("vertices"), obj.get("simplices")
    if not isinstance(vertices, (list, tuple)) or not all(map(isinstance, vertices, repeat(str))):
        raise ParseError(f"{side}.vertices: expected a list of strings")
    if len(set(vertices)) != len(vertices):
        dup = next(v for v in vertices if vertices.count(v) > 1)
        raise ParseError(f"{side}.vertices: duplicate name {dup!r}")
    if not isinstance(simplices, (list, tuple)):
        raise ParseError(f"{side}.simplices: expected a list of vertex lists")
    known = set(vertices)
    for s in simplices:
        if not isinstance(s, (list, tuple)) or not s:
            raise ParseError(f"{side}.simplices: expected nonempty vertex lists")
        for v in s:
            if not isinstance(v, str):
                raise ParseError(f"{side}.simplices: vertex names must be strings, got {v!r}")
            if v not in known:
                raise ParseError(f"{side}.simplices: unknown vertex {v!r}")
        if len(set(s)) != len(s):
            raise ParseError(f"{side}.simplices: repeated vertex in {s!r}")
    return vertices, simplices


def _check_map(vmap, xv, yv):
    if not isinstance(vmap, dict):
        raise ParseError("map: expected an object of vertex-name pairs")
    known_x, known_y = set(xv), set(yv)
    for a, b in vmap.items():
        if a not in known_x:
            raise ParseError(f"map: unknown source vertex {a!r}")
        if not isinstance(b, str):
            raise ParseError(f"map: image of {a!r} must be a vertex name, got {b!r}")
        if b not in known_y:
            raise ParseError(f"map: unknown target vertex {b!r}")
    missing = [v for v in xv if v not in vmap]
    if missing:
        raise ParseError(f"map: no image for vertex {missing[0]!r}")


def parse_map(text: str) -> MapDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    for key in ("x", "y", "map"):
        if key not in obj:
            raise ParseError(f"missing required field {key!r}")
    xv, xs = _check_side(obj["x"], "x")
    yv, ys = _check_side(obj["y"], "y")
    if not ys:
        raise ParseError("y.simplices: the target complex has no simplices")
    _check_map(obj["map"], xv, yv)
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object")
    return MapDocument(xv, xs, yv, ys, obj["map"], metadata)


def _layout(items, pad: str, brackets: str = "[]") -> str:
    """Encoded items as json.dumps(indent=2) lays out a list (or object) at pad."""
    inner = pad + "  "
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if items else brackets


def emit_map(doc: MapDocument) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` of the canonical document,
    with names through json's C string encoder; a simplex is never empty."""
    doc, quote = doc.canonical(), encode_basestring_ascii
    try:
        sides = []
        for vs, ss in ((doc.x_vertices, doc.x_simplices), (doc.y_vertices, doc.y_simplices)):
            joined = map(",\n        ".join, map(map, repeat(quote), ss))
            listed = list(map("[\n        {}\n      ]".format, joined))
            sides.append([f'"vertices": {_layout(list(map(quote, vs)), "    ")}',
                          f'"simplices": {_layout(listed, "    ")}'])
        pairs = list(map(": ".join, map(map, repeat(quote), doc.vertex_map.items())))
    except TypeError:  # a name that is no string
        doc._refuse()
        raise
    fields = [f'"{key}": {_layout(side, "  ", "{}")}' for key, side in zip("xy", sides)]
    fields.append(f'"map": {_layout(pairs, "  ", "{}")}')
    if doc.metadata:
        fields.append('"metadata": ' + json.dumps(doc.metadata, indent=2).replace("\n", "\n  "))
    return _layout(fields, "", "{}") + "\n"


def document_from_map(f: SimplicialMap, metadata=None) -> MapDocument:
    X, Y = f.source, f.target
    return MapDocument(
        [str(lab) for lab in X.labels],
        [[str(X.labels[v]) for v in s] for s in X.maximal_simplices()],
        [str(lab) for lab in Y.labels],
        [[str(Y.labels[v]) for v in s] for s in Y.maximal_simplices()],
        {str(X.labels[v]): str(Y.labels[f.vertex_map[v]]) for v in range(X.n_vertices)},
        metadata or {},
    )


def group_json(g: HomologyGroup) -> dict:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def emit_report(report: dict, fmt: str = "human") -> str:
    """Render a report dictionary; JSON output is byte-stable."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt != "human":
        raise ParseError(f"unknown format {fmt!r}")
    lines = []

    def walk(obj, pad):
        if isinstance(obj, dict):
            pairs = ((f"{k}:", v) for k, v in obj.items())
        else:
            pairs = (("-", item) for item in obj)
        for head, v in pairs:
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(pad + head)
                walk(v, pad + "  ")
            else:
                lines.append(f"{pad}{head} {_scalar(v)}")

    walk(report, "")
    return "\n".join(lines) + "\n"


def _is_scalar_list(v):
    return isinstance(v, list) and not any(isinstance(x, (dict, list)) for x in v)


def _scalar(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)
