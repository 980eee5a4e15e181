import io
import json
import sys

import pytest

from icss.cli import main
from icss.errors import ParseError
from icss.io import document_from_map, emit_map, parse_map


def fold_text(fold):
    return emit_map(document_from_map(fold))


def test_document_round_trip(fold):
    text = fold_text(fold)
    doc = parse_map(text)
    f = doc.to_simplicial_map()
    assert f.valid
    assert f.source.labels == fold.source.labels
    assert f.vertex_map == fold.vertex_map
    # emit . parse . emit is byte stable
    assert emit_map(parse_map(text)) == text


def test_parse_errors_name_the_culprit():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_map("{")
    base = {
        "x": {"vertices": ["a"], "simplices": [["a"]]},
        "y": {"vertices": ["p"], "simplices": [["p"]]},
        "map": {"a": "p"},
    }
    bad = json.loads(json.dumps(base))
    bad["x"]["vertices"] = ["a", "a"]
    with pytest.raises(ParseError, match="'a'"):
        parse_map(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["x"]["simplices"] = [["q"]]
    with pytest.raises(ParseError, match="unknown vertex 'q'"):
        parse_map(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    bad["map"] = {}
    with pytest.raises(ParseError, match="no image for vertex 'a'"):
        parse_map(json.dumps(bad))
    bad = json.loads(json.dumps(base))
    del bad["y"]
    with pytest.raises(ParseError, match="'y'"):
        parse_map(json.dumps(bad))


def write_doc(tmp_path, text, name="map.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys, fold):
    path = write_doc(tmp_path, fold_text(fold))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid: True" in out


def test_cli_validate_failure_exits_1(tmp_path, capsys):
    doc = {
        "x": {"vertices": ["a"], "simplices": [["a"]]},
        "y": {"vertices": ["p", "q"], "simplices": [["p", "q"]]},
        "map": {"a": "p"},
    }
    path = write_doc(tmp_path, json.dumps(doc))
    assert main(["validate", path]) == 1


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "{not json")
    assert main(["validate", path]) == 2
    assert main(["icss", str(tmp_path / "missing.json")]) == 2
    assert main(["fixtures", "no-such-fixture"]) == 2


EMPTY_TARGETS = {
    "all_empty": {
        "x": {"vertices": [], "simplices": []},
        "y": {"vertices": [], "simplices": []},
        "map": {},
    },
    "no_simplices": {
        "x": {"vertices": ["a"], "simplices": []},
        "y": {"vertices": ["p"], "simplices": []},
        "map": {"a": "p"},
    },
}


@pytest.mark.parametrize("command", ["icss", "gvzss", "verify"])
@pytest.mark.parametrize("doc", sorted(EMPTY_TARGETS))
def test_cli_empty_target_exits_2(tmp_path, capsys, command, doc):
    path = write_doc(tmp_path, json.dumps(EMPTY_TARGETS[doc]))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "y.simplices" in err


NON_STRING_NAMES = {
    "list_image": {
        "x": {"vertices": ["a"], "simplices": [["a"]]},
        "y": {"vertices": ["u"], "simplices": [["u"]]},
        "map": {"a": ["u"]},
    },
    "nested_simplex": {
        "x": {"vertices": ["a"], "simplices": [[["a"]]]},
        "y": {"vertices": ["u"], "simplices": [["u"]]},
        "map": {"a": "u"},
    },
}


@pytest.mark.parametrize("doc", sorted(NON_STRING_NAMES))
def test_cli_non_string_name_exits_2(tmp_path, capsys, doc):
    path = write_doc(tmp_path, json.dumps(NON_STRING_NAMES[doc]))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


# input that never becomes a document: bytes that are no UTF-8, and JSON
# nested deeper than the decoder can recurse; (bytes, text the one error
# line must hold)
UNREADABLE = {
    "not_utf8": (b'\xff{"x": {}}', "not UTF-8"),
    "deep": (b"[" * 200_000, "nested too deeply"),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("doc", sorted(UNREADABLE))
def test_cli_unreadable_input_exits_2(tmp_path, capsys, monkeypatch, doc, source):
    data, message = UNREADABLE[doc]
    if source == "file":
        arg = tmp_path / "map.json"
        arg.write_bytes(data)
    else:
        arg = "-"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["validate", str(arg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert message in captured.err


def test_cli_reads_a_map_from_stdin(capsys, monkeypatch, fold):
    text = fold_text(fold).replace("\n", "\r\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))
    assert main(["validate", "-"]) == 0
    assert "valid: True" in capsys.readouterr().out


# y lists a vertex "q" that lies in no simplex: it is a point of Y that
# nothing maps onto
ISOLATED_TARGET_VERTEX = {
    "x": {"vertices": ["a"], "simplices": [["a"]]},
    "y": {"vertices": ["p", "q"], "simplices": [["p"]]},
    "map": {"a": "p"},
}


def test_cli_isolated_target_vertex_is_not_hit(tmp_path, capsys):
    path = write_doc(tmp_path, json.dumps(ISOLATED_TARGET_VERTEX))
    assert main(["--format", "json", "validate", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["surjective"] is False and payload["valid"] is False
    assert main(["--format", "json", "homology", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y"]["H_0"] == {"rank": 2, "torsion": []}


@pytest.mark.parametrize("command", ["icss", "gvzss", "verify", "build"])
def test_cli_isolated_target_vertex_exits_2(tmp_path, capsys, command):
    path = write_doc(tmp_path, json.dumps(ISOLATED_TARGET_VERTEX))
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "surjective" in captured.err


def test_cli_fixture_listing(capsys):
    assert main(["--format", "json", "fixtures"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fold" in payload["fixtures"]
    assert "disc_to_rp2" in payload["fixtures"]


def test_cli_fixture_emission_parses(capsys):
    assert main(["fixtures", "figure_eight"]) == 0
    text = capsys.readouterr().out
    assert parse_map(text).to_simplicial_map().valid


def test_cli_build(tmp_path, capsys, fold):
    path = write_doc(tmp_path, fold_text(fold))
    assert main(["--format", "json", "build", path, "--kind", "D", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simplex_counts"] == [3, 2]


def test_cli_build_far_past_the_largest_fibre(tmp_path, capsys, fold):
    """D^k is empty for every k past the largest lift count, and a k far
    past it prints that empty space without building the levels between."""
    path = write_doc(tmp_path, fold_text(fold))
    for k in (3, 3000):
        assert main(["--format", "json", "build", path, "--kind", "D", "--k", str(k)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"dim": -1, "k": k, "kind": "D", "simplex_counts": [], "vertices": []}


def test_cli_build_refuses_a_tower_over_the_limit(tmp_path, capsys, fold):
    """W^1..W^K of fold have 5, 14, 31, ... simplices in all (doubling per
    level), so K = 14 builds and K = 40 is refused before any level is
    built: exit 2, one error line and nothing on stdout."""
    from icss.cli import MAX_BUILD_ENTRIES

    path = write_doc(tmp_path, fold_text(fold))
    assert main(["--format", "json", "build", path, "--kind", "W", "--k", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["simplex_counts"] == [16385, 16384]
    assert main(["build", path, "--kind", "W", "--k", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(MAX_BUILD_ENTRIES) in captured.err


POINT = {
    "x": {"vertices": ["a"], "simplices": [["a"]]},
    "y": {"vertices": ["p"], "simplices": [["p"]]},
    "map": {"a": "p"},
}


def test_cli_build_refuses_a_deep_tower_with_one_error_line(tmp_path, capsys, identity_map):
    """identity's W^j has 6 simplices of j-tuples, so W^1..W^1200 would
    store 3 * 1200 * 1201 entries: the budget refuses it before any level
    is built, with exit 2, one error line and nothing on stdout."""
    path = write_doc(tmp_path, fold_text(identity_map))
    assert main(["build", path, "--kind", "W", "--k", "1200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_cli_build_reaches_the_deepest_level_the_budget_accepts(tmp_path, capsys):
    """A one-point map's W^j is one simplex, a j-tuple, so the deepest K the
    budget accepts has K (K + 1) / 2 entries at most; that K lies above
    1,000 for any budget that accepts fold's W^1..W^14, and its levels are
    built with no recursion."""
    from icss.cli import MAX_BUILD_ENTRIES

    k = 1
    while (k + 1) * (k + 2) // 2 <= MAX_BUILD_ENTRIES:
        k += 1
    assert k > 1000
    path = write_doc(tmp_path, json.dumps(POINT))
    assert main(["--format", "json", "build", path, "--kind", "W", "--k", str(k)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simplex_counts"] == [1]
    assert payload["vertices"] == ["(" + ",".join(["0"] * k) + ")"]
    assert main(["build", path, "--kind", "W", "--k", str(k + 1)]) == 2
    assert capsys.readouterr().out == ""


def test_cli_homology(tmp_path, capsys, disc_to_rp2):
    path = write_doc(tmp_path, fold_text(disc_to_rp2))
    assert main(["--format", "json", "homology", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y"]["H_1"] == {"rank": 0, "torsion": [2]}


def test_cli_spectral_and_verify(tmp_path, capsys, fold):
    path = write_doc(tmp_path, fold_text(fold))
    for cmd in ("icss", "gvzss", "verify"):
        assert main(["--format", "json", cmd, path]) == 0, cmd
        payload = json.loads(capsys.readouterr().out)
        key = "passed" if cmd == "verify" else "converged"
        assert payload[key] is True


def test_cli_output_is_deterministic(tmp_path, capsys, fold):
    path = write_doc(tmp_path, fold_text(fold))
    outputs = []
    for _ in range(2):
        assert main(["--format", "json", "icss", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_verify_exits_1_when_a_grid_is_not_a_complex(tmp_path, capsys, fold, monkeypatch):
    """A W grid that fails its own identities is a failed check, exit 1,
    not malformed input."""
    from icss.multiplicity import LiftTable

    real = LiftTable.transfer_columns

    def flipped(self, k, q, kind="W"):
        cols = real(self, k, q, kind)
        if (k, kind) == (2, "W"):
            j = next(j for j, col in enumerate(cols) if col)
            row, a = next(iter(cols[j].items()))
            cols[j] = {**cols[j], row: -a}
        return cols

    monkeypatch.setattr(LiftTable, "transfer_columns", flipped)
    path = write_doc(tmp_path, fold_text(fold))
    assert main(["--format", "json", "verify", path]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    collapse = checks["collapse-first W"]
    assert not collapse["passed"]
    assert collapse["details"][0][0] == "not-a-complex"
    assert checks["collapse-first Alt"]["passed"]
