"""The mutation table: which tests catch which fault.

Each row of ``MUTANTS`` names a module under ``src/icss``, a text that
occurs in it exactly once, the text that replaces it, and the tests that
must fail on the mutated code.  Run from anywhere:

    python tests/mutants.py

For each row the driver copies ``src``, ``tests``, ``demos`` and
``pyproject.toml`` to a temporary directory, applies that one mutant there,
runs the named tests with pytest and prints ``killed`` (every named test
failed), ``partly killed`` (some did) or ``survived`` (none did), with the
named tests that passed.  It exits 1 unless every mutant is killed.  A
mutant that survives is a gap in the tests, to be reported, not a row to
be edited until it dies.

Pytest does not collect this file; ``test_mutants.py`` checks that every
old text still occurs exactly once and that every named test exists, so a
change to the source cannot leave a row silently inapplicable.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icss"


class Mutant(NamedTuple):
    file: str  # module under src/icss
    old: str  # occurs exactly once in it
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    fault: str


MUTANTS = (
    Mutant(
        "multiplicity.py",
        "return tuple(sorted(ids)), sort_sign(ids)",
        "return tuple(sorted(ids)), 1",
        (
            "tests/test_multiplicity.py::test_w_bridge_is_the_cell_bijection",
            "tests/test_alternating.py::test_alt_basis_matches_alternation",
            "tests/test_cohomology.py::test_alt_star_matches_alternation",
        ),
        "grid_cells drops the listing parity of each product",
    ),
    Mutant(
        "alternating.py",
        "block.data[Z.index(image)][j] += sign",
        "block.data[Z.index(image)][j] -= sign",
        (
            "tests/test_alternating.py::test_alternating_characterization",
            "tests/test_alternating.py::test_alternating_homology_two_routes",
            "tests/test_cohomology.py::test_two_cochain_models_agree",
        ),
        "alternating_kernel keeps chains that a slot swap fixes, not negates",
    ),
    Mutant(
        "intlinalg.py",
        "if lev - head > gap:",
        "if lev - head > gap + 1:",
        (
            "tests/test_spectral.py::test_reduction_pairs_only_equal_levels",
            "tests/test_spectral.py::test_reduced_sequence_matches_generic_formula[fold-None]",
        ),
        "reduce_complex cancels pairs one level further apart than its gap",
    ),
    Mutant(
        "spectral.py",
        "cells = [j for j, level in enumerate(level_n) if level == s]",
        "cells = [j for j, level in enumerate(level_n) if level <= s]",
        (
            "tests/test_spectral.py::test_page_one_matches_direct_homology",
            "tests/test_spectral.py::test_reduced_sequence_matches_generic_formula[fold-None]",
        ),
        "page one reads F_s instead of F_s / F_(s-1)",
    ),
    Mutant(
        "intlinalg.py",
        "tor = tuple(d for d in relation_factors if d >= 2)",
        "tor = tuple(d for d in relation_factors if d >= 3)",
        (
            "tests/test_acceptance.py::test_criterion_2_projective_plane",
            "tests/test_intlinalg.py::test_group_from_presentation",
            "tests/test_cohomology.py::test_rp2_alternating_cohomology",
        ),
        "a presentation loses its Z/2 factors",
    ),
    Mutant(
        "multiplicity.py",
        "twist = -1 if q % 2 else 1",
        "twist = 1",
        (
            "tests/test_alternating.py::test_rho_is_the_lift_table_transfer[fold-None]",
            "tests/test_spectral.py::test_w_blocks_match_an_independent_construction[fold-None]",
        ),
        "the W grid's transfer loses its degree twist (-1)^q",
    ),
    Mutant(
        "spectral.py",
        "if any(a != {i: -x for i, x in b.items()} for a, b in zip(hv, vh)):",
        "if any(a != {i: x for i, x in b.items()} for a, b in zip(hv, vh)):",
        (
            "tests/test_spectral.py::test_double_complex_identities",
            "tests/test_io_cli.py::test_cli_spectral_and_verify",
        ),
        "verify_identities asks the blocks to commute instead of anticommute",
    ),
    Mutant(
        "intlinalg.py",
        "H, _, pivots = column_echelon(M, reduce=True, transform=False)",
        "H, _, pivots = column_echelon(M, reduce=False, transform=False)",
        ("tests/test_intlinalg.py::test_subgroup_generator_independence",),
        "a subgroup's Hermite basis is not reduced, so equal spans can compare unequal",
    ),
    Mutant(
        "io.py",
        "except RecursionError:",
        "except MemoryError:",
        ("tests/test_io_cli.py::test_cli_unreadable_input_exits_2",),
        "a deeply nested document escapes as a RecursionError traceback",
    ),
    Mutant(
        "cli.py",
        'text = data.decode("utf-8")',
        'text = data.decode("utf-8", "replace")',
        ("tests/test_io_cli.py::test_cli_unreadable_input_exits_2",),
        "bytes that are no UTF-8 are read as replacement characters",
    ),
    Mutant(
        "multiplicity.py",
        "signs = [twist if (k - 1 - j) % 2 == 0 else -twist for j in range(k)]",
        "signs = [twist if (k - j) % 2 == 0 else -twist for j in range(k)]",
        (
            "tests/test_alternating.py::test_alt_transfer_is_the_lift_table_transfer",
            "tests/test_verify.py::test_d_row_exact",
        ),
        "the D grid's subset drops lose the sign (-1)^(k-1) of their first place",
    ),
    Mutant(
        "verify.py",
        "    for k in range(1, top):\n",
        "    for k in range(1, top - 1):\n",
        ("tests/test_verify.py::test_row_failures_on_standard_simplex_rows",),
        "a row's exactness is not checked at its top cells",
    ),
    Mutant(
        "verify.py",
        "raw[k] = sparse_columns(pushforward_matrix(projection_eps(Zk, k), n))",
        "raw[k] = sparse_columns(pushforward_matrix(projection_eps(Zk, 1), n))",
        (
            "tests/test_verify.py::test_d_row_exact",
            "tests/test_verify.py::test_rows_exact_on_deeper_fibres",
        ),
        "the D tie projects away slot 1 instead of the last slot k",
    ),
    Mutant(
        "spectral.py",
        "ranks[(p, q)] = lifts.n_cells(p + 1, q, cells)",
        "ranks[(p, q)] = lifts.n_cells(p + 1, q)",
        (
            "tests/test_spectral.py::test_alt_blocks_match_the_alternating_basis_route[fold-None]",
            "tests/test_spectral.py::test_build_double_double_cover_alt",
        ),
        "the Alt grid counts the W cells, all k-tuples of lifts",
    ),
    Mutant(
        "verify.py",
        "c[j] -= alpha * u",
        "c[j] += alpha * u",
        (
            "tests/test_verify.py::test_d2_kernel",
            "tests/test_acceptance.py::test_criterion_6_double_point_kernel",
        ),
        "a D^2 reduction step adds the pair generator instead of subtracting it",
    ),
    Mutant(
        "spectral.py",
        "image = IntMatrix.from_sparse(self.rung(g)[0][n + 1], ambient) @ up.basis",
        "image = IntMatrix.from_sparse("
        "[self.rung(g)[0][n + 1][j] for j in self._coords_leq(n + 1, s + r - 1, g)], ambient)",
        (
            "tests/test_golden.py::test_cli_output_is_unchanged[disc_to_rp2-gvzss]",
            "tests/test_acceptance.py::test_criterion_1_convergence",
        ),
        "a page's boundary image reads every cell of level <= s + r - 1, not D of the cycles up",
    ),
    Mutant(
        "cli.py",
        "total += j * sum(",
        "total += sum(",
        ("tests/test_io_cli.py::test_cli_build_refuses_a_deep_tower_with_one_error_line",),
        "the build budget counts simplices, not the j entries of each level-j tuple",
    ),
)


def failed_tests(output: str) -> set:
    """The node ids that pytest's ``-rfE`` summary lists as failed or in
    error (a mutant that breaks an import fails every test at collection)."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$", output, re.M))


def run(mutant: Mutant) -> list:
    """The named tests that pass on the code with this one mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, tmp / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "icss" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: old text does not occur exactly once: {mutant.old!r}")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
    failed = failed_tests(proc.stdout)
    return [
        t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)
    ]


def main() -> int:
    status = 0
    for i, mutant in enumerate(MUTANTS):
        passed = run(mutant)
        if not passed:
            verdict = "killed"
        else:
            verdict = "partly killed" if len(passed) < len(mutant.tests) else "survived"
            status = 1
        print(f"{i:2d} {verdict:13s} {mutant.file}: {mutant.fault}", flush=True)
        for t in passed:
            print(f"   passed: {t}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
