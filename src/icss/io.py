"""JSON input documents and report serialization.

A map document is a single JSON object::

    {"x": {"vertices": [...], "simplices": [[...], ...]},
     "y": {"vertices": [...], "simplices": [[...], ...]},
     "map": {"x-vertex": "y-vertex", ...},
     "metadata": {...}}           # optional

Vertex names are strings; the vertex order of each complex is the input
order and simplices are lists of vertex names.  Reports serialize to a
human-readable table or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .complexes import SimplicialMap, build_complex
from .errors import ParseError
from .intlinalg import HomologyGroup


@dataclass
class MapDocument:
    x_vertices: list
    x_simplices: list
    y_vertices: list
    y_simplices: list
    vertex_map: dict
    metadata: dict = field(default_factory=dict)

    def to_simplicial_map(self) -> SimplicialMap:
        X = build_complex(self.x_simplices, labels=self.x_vertices)
        Y = build_complex(self.y_simplices, labels=self.y_vertices)
        vmap = {
            X.label_index[a]: Y.label_index[b] for a, b in self.vertex_map.items()
        }
        return SimplicialMap(X, Y, vmap)

    def canonical(self) -> "MapDocument":
        """Vertex order kept; simplices replaced by sorted maximal ones."""

        def canon_side(vertices, simplices):
            order = {v: i for i, v in enumerate(vertices)}
            complex_ = build_complex(simplices, labels=vertices)
            out = [
                [vertices[v] for v in s] for s in complex_.maximal_simplices()
            ]
            return sorted(out, key=lambda s: (len(s), [order[v] for v in s]))

        return MapDocument(
            list(self.x_vertices),
            canon_side(self.x_vertices, self.x_simplices),
            list(self.y_vertices),
            canon_side(self.y_vertices, self.y_simplices),
            {v: self.vertex_map[v] for v in self.x_vertices},
            dict(self.metadata),
        )


def _check_side(obj, side: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{side}: expected an object with vertices and simplices")
    vertices = obj.get("vertices")
    simplices = obj.get("simplices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{side}.vertices: expected a list of strings")
    if len(set(vertices)) != len(vertices):
        dup = next(v for v in vertices if vertices.count(v) > 1)
        raise ParseError(f"{side}.vertices: duplicate name {dup!r}")
    if not isinstance(simplices, list):
        raise ParseError(f"{side}.simplices: expected a list of vertex lists")
    known = set(vertices)
    for s in simplices:
        if not isinstance(s, list) or not s:
            raise ParseError(f"{side}.simplices: expected nonempty vertex lists")
        for v in s:
            if not isinstance(v, str):
                raise ParseError(f"{side}.simplices: vertex names must be strings, got {v!r}")
            if v not in known:
                raise ParseError(f"{side}.simplices: unknown vertex {v!r}")
        if len(set(s)) != len(s):
            raise ParseError(f"{side}.simplices: repeated vertex in {s!r}")
    return list(vertices), [list(s) for s in simplices]


def parse_map(text: str) -> MapDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    for key in ("x", "y", "map"):
        if key not in obj:
            raise ParseError(f"missing required field {key!r}")
    xv, xs = _check_side(obj["x"], "x")
    yv, ys = _check_side(obj["y"], "y")
    if not ys:
        raise ParseError("y.simplices: the target complex has no simplices")
    vmap = obj["map"]
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
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object")
    return MapDocument(xv, xs, yv, ys, dict(vmap), metadata)


def emit_map(doc: MapDocument) -> str:
    doc = doc.canonical()
    payload = {
        "x": {"vertices": doc.x_vertices, "simplices": doc.x_simplices},
        "y": {"vertices": doc.y_vertices, "simplices": doc.y_simplices},
        "map": doc.vertex_map,
    }
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2) + "\n"


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

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {_scalar(v)}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)) and item and not _is_scalar_list(item):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {_scalar(item)}")

    walk(report)
    return "\n".join(lines) + "\n"


def _is_scalar_list(v):
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v
    )


def _scalar(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)
