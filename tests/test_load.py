"""The one-pass map load against the closure-based route it replaced.

A load sorts each given simplex once into per-dimension sets, reads the
canonical form off the given simplices without building a complex, checks
with set tests that fall back to per-item loops only to name a culprit, and
writes documents as ``json.dumps(..., indent=2)`` would.  ``reference`` keeps
the old route; every complex, canonical form, report and emitted byte must
match it.
"""

import copy
import json
import random

import pytest

from icss import complexes
from icss.cli import main
from icss.complexes import build_complex, validate_map
from icss.errors import InvalidSimplex, ParseError
from icss.fixtures import FIXTURES, random_fixture
from icss.io import MapDocument, document_from_map, emit_map, parse_map
from reference import build_complex_by_closure, canonical_by_closure, validate_map_by_walk

NAMED = ["identity", "fold", "double_cover", "figure_eight", "disc_to_rp2"]


def with_redundant_faces(doc: MapDocument, seed: int) -> MapDocument:
    """The same map with non-maximal faces, repeats in another vertex order
    and shuffled simplex order added to each side's given simplices."""
    rng = random.Random(seed)

    def noisy(simplices):
        out = [list(s) for s in simplices]
        for s in simplices:
            if len(s) > 1 and rng.random() < 0.5:
                out.append(rng.sample(list(s), rng.randint(1, len(s) - 1)))
            if rng.random() < 0.3:
                out.append(list(reversed(s)))
        rng.shuffle(out)
        return out

    return MapDocument(
        doc.x_vertices, noisy(doc.x_simplices), doc.y_vertices, noisy(doc.y_simplices),
        doc.vertex_map,
    )


HAND_MADE = {
    # a given edge and vertex inside a given triangle, one simplex in two orders
    "non_maximal_faces": MapDocument(
        ["a", "b", "c", "d"], [["a", "b"], ["c", "b", "a"], ["b"], ["a", "b", "c"], ["d", "c"]],
        ["p", "q", "r"], [["p", "q"], ["r", "q", "p"], ["q", "p"]],
        {"a": "p", "b": "q", "c": "r", "d": "p"},
    ),
    # "e" in X and "s" in Y lie in no given simplex
    "isolated_vertices": MapDocument(
        ["e", "a", "b"], [["b", "a"]], ["p", "s", "q"], [["q", "p"]],
        {"e": "s", "a": "p", "b": "q"},
    ),
    "non_ascii_names": MapDocument(
        ["é", "☃", 'q"\\', "\U0001f600"],
        [["☃", "é"], ['q"\\', "☃", "\U0001f600"], ["é"]],
        ["ü", "t\tab"], [["t\tab", "ü"]],
        {"é": "ü", "☃": "t\tab", 'q"\\': "ü", "\U0001f600": "ü"},
    ),
}


def documents() -> dict:
    docs = {name: document_from_map(FIXTURES[name]()) for name in NAMED}
    docs.update({f"random{seed}": document_from_map(random_fixture(seed)) for seed in range(40)})
    docs.update({f"{name}+faces": with_redundant_faces(doc, i) for i, (name, doc) in enumerate(
        list(docs.items()))})
    docs.update(HAND_MADE)
    return docs


DOCS = documents()


def payload(doc: MapDocument) -> dict:
    out = {
        "x": {"vertices": doc.x_vertices, "simplices": doc.x_simplices},
        "y": {"vertices": doc.y_vertices, "simplices": doc.y_simplices},
        "map": doc.vertex_map,
    }
    if doc.metadata:
        out["metadata"] = doc.metadata
    return out


def same_complex(K, L) -> bool:
    return (
        K == L
        and K.labels == L.labels
        and K.n_vertices == L.n_vertices
        and all(K.simplices(d) == L.simplices(d) for d in range(max(K.dim, L.dim) + 1))
        and all(K.index(s) == L.index(s) for s in L.all_simplices())
    )


@pytest.mark.parametrize("name", sorted(DOCS))
def test_load_matches_the_closure_route(name):
    doc = DOCS[name]
    for vertices, simplices in ((doc.x_vertices, doc.x_simplices),
                                (doc.y_vertices, doc.y_simplices)):
        K = build_complex(simplices, labels=vertices)
        assert same_complex(K, build_complex_by_closure(simplices, labels=vertices))
        ids = [tuple(K.label_index[v] for v in s) for s in simplices]
        assert same_complex(build_complex(ids), build_complex_by_closure(ids))
    canonical = doc.canonical()
    assert canonical == canonical_by_closure(doc)
    text = emit_map(doc)
    assert text == json.dumps(payload(canonical_by_closure(doc)), indent=2) + "\n"
    f = parse_map(text).to_simplicial_map()
    X = build_complex_by_closure(doc.x_simplices, labels=doc.x_vertices)
    Y = build_complex_by_closure(doc.y_simplices, labels=doc.y_vertices)
    assert same_complex(f.source, X) and same_complex(f.target, Y)
    assert f.report == validate_map_by_walk(f.vertex_map, X, Y)


@pytest.mark.parametrize("seed", range(60))
def test_reports_match_the_walk_on_any_map(seed):
    """Random complexes and vertex maps, mostly not simplicial, finite-to-one
    or surjective: the same failures in the same order."""
    rng = random.Random(seed)

    def random_complex(n):
        return build_complex(
            [rng.sample(range(n), rng.randint(1, min(n, 3))) for _ in range(rng.randint(1, 6))]
            + [[v] for v in range(n)]
        )

    X, Y = random_complex(rng.randint(1, 6)), random_complex(rng.randint(1, 5))
    vertex_map = {v: rng.randrange(Y.n_vertices) for v in range(X.n_vertices)}
    assert validate_map(vertex_map, X, Y) == validate_map_by_walk(vertex_map, X, Y)


def test_reports_cover_each_failure_kind():
    kinds = set()
    for seed in range(60):
        rng = random.Random(seed)
        X = build_complex([(0, 1, 2), (2, 3)])
        Y = build_complex([(0, 1), (1, 2), (3,)])
        vertex_map = {v: rng.randrange(4) for v in range(4)}
        report = validate_map(vertex_map, X, Y)
        assert report == validate_map_by_walk(vertex_map, X, Y)
        kinds.update(kind for kind, _ in report.failures)
    assert kinds == {"collapsed", "not-a-simplex", "missed"}


METADATA = {
    "nested": {"a": [1, {"b": [[], {}]}], "c": {"d": None}},
    "ints": [0, -3, 10**20],
    "floats": [1.5, -0.0, 1e-300, 2.5e17],
    "bools": [True, False],
    "null": None,
    "empty_list": [],
    "empty_object": {},
    "escapes": 'tab\there "quoted" back\\slash \x01 new\nline',
    "non_ascii é": "☃ \U0001f600",
    "seed": 7,
}


@pytest.mark.parametrize("metadata", [METADATA, {}, {"only": []}, {1: "int key", None: 2.0}])
@pytest.mark.parametrize("name", ["fold", "non_ascii_names", "isolated_vertices"])
def test_emit_map_is_json_dumps(name, metadata):
    doc = DOCS[name]
    doc = MapDocument(doc.x_vertices, doc.x_simplices, doc.y_vertices, doc.y_simplices,
                      doc.vertex_map, metadata)
    assert emit_map(doc) == json.dumps(payload(doc.canonical()), indent=2) + "\n"


def test_emit_map_of_empty_sides():
    doc = MapDocument([], [], ["p"], [["p"]], {})
    assert emit_map(doc) == json.dumps(payload(doc.canonical()), indent=2) + "\n"


def test_load_is_one_pass(monkeypatch, disc_to_rp2):
    """emit_map builds no complex; to_simplicial_map builds two and
    validates the map once."""
    built, validated = [], []
    init, validate = complexes.SimplicialComplex.__init__, complexes.validate_map

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_validate(*args):
        validated.append(1)
        return validate(*args)

    doc = document_from_map(disc_to_rp2)
    monkeypatch.setattr(complexes.SimplicialComplex, "__init__", counting_init)
    monkeypatch.setattr(complexes, "validate_map", counting_validate)
    text = emit_map(with_redundant_faces(doc, 0))
    assert (built, validated) == ([], [])
    f = parse_map(text).to_simplicial_map()
    assert (len(built), len(validated)) == (2, 1)
    assert f.valid


BASE = {
    "x": {"vertices": ["a", "b"], "simplices": [["a", "b"]]},
    "y": {"vertices": ["p", "q"], "simplices": [["p", "q"]]},
    "map": {"a": "p", "b": "q"},
}

# each fault after a good simplex, so the set tests fail and the loop names it
NON_LIST = "x.simplices: expected nonempty vertex lists"
NOT_A_STRING = "x.simplices: vertex names must be strings, got "
MALFORMED = {
    "non_list_simplex": ("simplices", [["a", "b"], "a"], NON_LIST),
    "empty_simplex": ("simplices", [["a", "b"], []], NON_LIST),
    "int_vertex": ("simplices", [["a", "b"], [1]], NOT_A_STRING + "1"),
    "null_vertex": ("simplices", [["a"], [None]], NOT_A_STRING + "None"),
    "list_vertex": ("simplices", [["a"], [["a"]]], NOT_A_STRING + "['a']"),
    "unknown_vertex": ("simplices", [["a", "b"], ["z"]], "x.simplices: unknown vertex 'z'"),
    "repeated_vertex": ("simplices", [["a"], ["b", "a", "b"]],
                        "x.simplices: repeated vertex in ['b', 'a', 'b']"),
    "duplicate_name": ("vertices", ["a", "b", "a"], "x.vertices: duplicate name 'a'"),
}


def malformed(fault):
    field_, value, message = MALFORMED[fault]
    doc = json.loads(json.dumps(BASE))
    doc["x"][field_] = value
    return doc, message


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_side_gives_the_message(fault, tmp_path, capsys):
    doc, message = malformed(fault)
    with pytest.raises(ParseError) as info:
        parse_map(json.dumps(doc))
    assert str(info.value) == message
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_api_document_raises_no_traceback(fault):
    """The same faults in a MapDocument built through the API: parse_map's
    message, but an empty simplex and a repeated vertex stay InvalidSimplex."""
    doc, message = malformed(fault)
    if fault == "non_list_simplex":
        doc["x"]["simplices"][1] = 5  # a string would be read as its letters
    doc = MapDocument(doc["x"]["vertices"], doc["x"]["simplices"], doc["y"]["vertices"],
                      doc["y"]["simplices"], doc["map"])
    error = InvalidSimplex if fault in ("empty_simplex", "repeated_vertex") else ParseError
    for load in (emit_map, MapDocument.to_simplicial_map):
        with pytest.raises(error) as info:
            load(doc)
        if error is ParseError:
            assert str(info.value) == message


@pytest.mark.parametrize(
    "vertex_map, message",
    [
        ({"a": "p"}, "map: no image for vertex 'b'"),
        ({"a": "p", "b": "z"}, "map: unknown target vertex 'z'"),
        ({"a": "p", "b": 3}, "map: image of 'b' must be a vertex name, got 3"),
    ],
)
def test_inconsistent_map_raises_the_parse_message(vertex_map, message):
    doc = MapDocument(["a", "b"], [["a", "b"]], ["p", "q"], [["p", "q"]], vertex_map)
    for load in (emit_map, MapDocument.to_simplicial_map, parse_map):
        with pytest.raises(ParseError) as info:
            load(json.dumps(payload(doc)) if load is parse_map else doc)
        assert str(info.value) == message


def test_non_string_names_are_not_emitted():
    doc = MapDocument([1, 2], [[1, 2]], ["p", "q"], [["p", "q"]], {1: "p", 2: "q"})
    assert doc.to_simplicial_map().valid  # the API accepts any hashable name
    with pytest.raises(ParseError, match="x.vertices: expected a list of strings"):
        emit_map(doc)


JUNK = [None, 1, 2.5, True, "z", "a", [], ["a"], ["z"], [["a"]], {}, {"a": "p"}, ("a",), [1]]


@pytest.mark.parametrize("seed", range(4))
def test_api_documents_load_or_raise_a_typed_error(seed):
    """Random faults in an API document: emit_map, canonical and
    to_simplicial_map succeed or raise ParseError or InvalidSimplex, and
    emitted text always parses back."""
    rng = random.Random(seed)

    def junk():
        return copy.deepcopy(rng.choice(JUNK))

    for _ in range(400):
        parts = [["a", "b", "c"], [["a", "b"], ["b", "c"]], ["p", "q"], [["p", "q"]],
                 {"a": "p", "b": "q", "c": "p"}]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(parts))
            part = parts[i]
            if isinstance(part, dict) and part and rng.random() < 0.5:
                part[rng.choice(sorted(part))] = junk()
            elif isinstance(part, list) and part and rng.random() < 0.5:
                j = rng.randrange(len(part))
                if isinstance(part[j], list) and part[j] and rng.random() < 0.5:
                    part[j][rng.randrange(len(part[j]))] = junk()
                else:
                    part[j] = junk()
            else:
                parts[i] = junk()
        doc = MapDocument(*parts)
        for load in (emit_map, MapDocument.canonical, MapDocument.to_simplicial_map):
            try:
                out = load(doc)
            except (ParseError, InvalidSimplex):
                continue
            if load is emit_map:
                parse_map(out)
