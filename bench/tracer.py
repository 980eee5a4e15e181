"""Per-layer tracing of icss from outside the program.

``Tracer.install()`` replaces each function in ``TRACED`` with a timing
wrapper.  A module-level function is rebound in every ``icss`` module that
holds it, because ``from .intlinalg import solve`` copies the reference into
the importing module and patching ``icss.intlinalg`` alone would miss those
calls.  A method is replaced on its class.  ``uninstall()`` restores every
original.  Names missing from the program are skipped and listed in
``missing``.

A wrapper appends a span (function, start, end, parent span, nesting,
bookkeeping seconds) to an in-memory list.  ``pass_metrics()`` derives
self times from the spans: a span's duration minus what its child spans
cover.  A wrapper's bookkeeping (span records, matrix fingerprints and
entry sizes) happens outside its own span but inside its parent's, so it is
charged to the pseudo-layer ``trace``; with the root span's self time in
``bench`` every self time adds up to the traced wall time.  Time in
functions not listed here counts to the layer of the nearest traced caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Traced public functions, by layer (the icss module of the same name).
TRACED = {
    "io": ("parse_map", "emit_map", "document_from_map", "MapDocument.to_simplicial_map"),
    "complexes": (
        "build_complex", "boundary_matrix", "pushforward_matrix", "pushforward",
        "boundary_chain", "homology_of_complex", "validate_map",
    ),
    "multiplicity": (
        "Tower.W", "Tower.D", "Tower.k_max", "build_W", "build_D",
        "projection_eps", "fk_map", "sk_matrix", "sk_act",
    ),
    "alternating": (
        "AltBasis.__init__", "alt_boundary_matrix", "alt_veps_matrix",
        "varrho_matrix", "rho_matrix", "eps_last_matrix", "veps_matrix",
        "alternating_homology", "alternating_homology_kernel",
        "alternating_kernel", "alt_Z", "is_alternating",
    ),
    "intlinalg": (
        "column_echelon", "smith_normal_form", "invariant_factors", "solve",
        "kernel_basis", "rank", "Subgroup.__init__", "subgroup_quotient",
        "homology_pair", "preimage_subgroup", "IntMatrix.__matmul__",
    ),
    "spectral": (
        "build_double", "DoubleComplex.verify_identities", "SpectralSequence.D",
        "SpectralSequence.cycle_subgroup", "SpectralSequence.page_group",
        "SpectralSequence.page", "SpectralSequence.page_one_homology",
        "SpectralSequence.homology_total", "SpectralSequence.e_infinity",
        "page_one_oracle", "check_collapse_first", "icss", "gvzss", "first_ss",
        "make_report", "icss_report", "gvzss_report",
    ),
    "verify": (
        "check_W_row_exact", "check_D_row_exact", "check_D2_kernel",
        "check_houston", "run_all",
    ),
    "cohomology": (
        "theta_matrix", "alt_star_matrix", "dualize", "cochain_homology",
        "alternating_cochain_homology", "dual_alternating_homology",
        "alternating_cochain_basis", "theta_apply", "is_alternating_cochain",
    ),
}
LAYERS = tuple(TRACED) + ("bench", "trace")

# Inclusive (outermost-call) time metrics: metric -> traced functions.
INCLUSIVE = {
    "intlinalg.echelon_s": ("intlinalg.column_echelon",),
    "intlinalg.solve_s": ("intlinalg.solve",),
    "intlinalg.smith_s": ("intlinalg.smith_normal_form",),
    "intlinalg.matmul_s": ("intlinalg.IntMatrix.__matmul__",),
    "alternating.homology_s": (
        "alternating.alternating_homology", "alternating.alternating_homology_kernel",
    ),
    "spectral.build_double_s": ("spectral.build_double",),
    "spectral.identities_s": ("spectral.DoubleComplex.verify_identities",),
    "spectral.page_group_s": ("spectral.SpectralSequence.page_group",),
    "spectral.e_infinity_s": ("spectral.SpectralSequence.e_infinity",),
    "spectral.oracle_s": ("spectral.page_one_oracle",),
    "spectral.collapse_s": ("spectral.check_collapse_first",),
    "verify.row_exact_s": ("verify.check_W_row_exact", "verify.check_D_row_exact"),
    "verify.d2_kernel_s": ("verify.check_D2_kernel",),
    "verify.houston_s": ("verify.check_houston",),
    "io.parse_s": ("io.parse_map", "io.MapDocument.to_simplicial_map"),
}
# Call-count metrics: metric -> traced function.
CALLS = {
    "intlinalg.echelon_calls": "intlinalg.column_echelon",
    "intlinalg.solve_calls": "intlinalg.solve",
    "intlinalg.smith_calls": "intlinalg.smith_normal_form",
    "intlinalg.matmul_calls": "intlinalg.IntMatrix.__matmul__",
    "alternating.altbasis_calls": "alternating.AltBasis.__init__",
    "spectral.page_group_calls": "spectral.SpectralSequence.page_group",
    "complexes.boundary_matrix_calls": "complexes.boundary_matrix",
}


def _entry_bits(rows) -> int:
    """Bit length of the largest absolute entry of a list of int rows."""
    rows = [r for r in rows if r]
    if not rows:
        return 0
    return max(abs(max(map(max, rows))), abs(min(map(min, rows)))).bit_length()


def _probe_echelon(tr, args, result):
    M = args[0]
    tr.job_seen("echelon", hash(M))
    if M.rows and M.cols:
        nnz = sum(len(r) - r.count(0) for r in M.data)
        tr.counts["echelon_density_sum"] += nnz / (M.rows * M.cols)
        tr.counts["echelon_density_n"] += 1
    H, T, _ = result
    tr.max_bits = max(tr.max_bits, _entry_bits(H.data), _entry_bits(T.data))


def _probe_smith(tr, args, result):
    tr.max_bits = max(tr.max_bits, *(_entry_bits(X.data) for X in result))


def _probe_matmul(tr, args, result):
    A, B = args
    tr.counts["matmul_madds"] += A.rows * A.cols * B.cols


def _probe_tower(tr, args, result, kind):
    tower, k = args
    tr.counts["tower_calls"] += 1
    if tr.job_seen("tower", (id(tower), kind, k), keep=tower):
        tr.counts["builds"] += 1
        tr.counts["simplices_built"] += sum(
            result.n_simplices(d) for d in range(result.dim + 1)
        )


def _probe_altbasis(tr, args, result):
    # the same basis again, even from another Tower of the same map, is waste
    basis, Z, n = args
    tr.job_seen("altbasis", (id(Z.f), Z.kind, Z.k, n), keep=Z.f)


PROBES = {
    "intlinalg.column_echelon": _probe_echelon,
    "intlinalg.smith_normal_form": _probe_smith,
    "intlinalg.IntMatrix.__matmul__": _probe_matmul,
    "multiplicity.Tower.W": functools.partial(_probe_tower, kind="W"),
    "multiplicity.Tower.D": functools.partial(_probe_tower, kind="D"),
    "alternating.AltBasis.__init__": _probe_altbasis,
}


def _call(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self):
        self.names: list = []  # "layer.qualname" per function id
        self.layer_of: list = []
        self.missing: list = []
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self._spans: list = []
        self._stack: list = [-1]
        self._active: list = []
        self.probe_errors = Counter()
        self.reset()

    # counters -----------------------------------------------------------
    def reset(self):
        """Start a new measurement (one pass of the job list)."""
        self._spans.clear()
        self.counts = Counter()
        self.distinct = Counter()
        self.max_bits = 0
        self._seen: dict = {}
        self._keep: list = []

    def job_seen(self, kind, key, keep=None) -> bool:
        """Record key for this job; True if it is new.  ``keep`` holds the
        object that owns an id() key alive until the job ends."""
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        self.distinct[kind] += 1
        if keep is not None:
            self._keep.append(keep)
        return True

    # wrapping -----------------------------------------------------------
    def _register(self, name, layer) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self._active.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, fid, probe):
        spans, stack, active = self._spans, self._stack, self._active
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            nested = active[fid]
            active[fid] = nested + 1
            ok = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = clock()
                stack.pop()
                active[fid] = nested
                if ok and probe is not None:
                    try:
                        probe(tracer, args, result)
                    except (AttributeError, TypeError, ValueError):
                        # the program changed the shape of what the probe
                        # reads; keep timing and report the skipped probe
                        tracer.probe_errors[tracer.names[fid]] += 1
                spans[idx] = (fid, t1, t2, parent, nested, clock() - t2 + t1 - t0)

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Put the wrappers in place (built on the first call)."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _build_patches(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "icss" or name.startswith("icss."))
        ]
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"icss.{layer}")
            for qual in names:
                full = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = vars(owner).get(attr) if owner is not None else None
                if not callable(orig):
                    self.missing.append(full)
                    continue
                wrapper = self._wrap(orig, self._register(full, layer), PROBES.get(full))
                if owner_name:
                    self._patches.append((owner, attr, orig, wrapper))
                    continue
                for m in modules:
                    for name, value in vars(m).items():
                        if value is orig:
                            self._patches.append((m, name, orig, wrapper))
        self._root = self._wrap(_call, self._register("bench.job", "bench"), None)

    def run_job(self, fn, *args):
        """Run fn(*args) as a root span; per-job distinct sets start empty."""
        self._seen = {}
        self._keep = []
        try:
            return self._root(fn, *args)
        finally:
            self._keep = []

    # derivation ---------------------------------------------------------
    def pass_metrics(self) -> dict:
        """Self time per layer, inclusive times and counts of the spans
        recorded since ``reset()``."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for fid, start, end, parent, _, overhead in spans:
            if parent >= 0:
                covered[parent] += end - start + overhead
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive = Counter()
        calls = Counter()
        wall = 0.0
        for i, (fid, start, end, parent, nested, overhead) in enumerate(spans):
            self_s[self.layer_of[fid]] += end - start - covered[i]
            calls[fid] += 1
            if parent < 0:
                wall += end - start
            else:
                self_s["trace"] += overhead
            if not nested:
                inclusive[fid] += end - start
        by_name = {name: i for i, name in enumerate(self.names)}

        def incl(*names):
            return sum(inclusive[by_name[n]] for n in names if n in by_name)

        def ncalls(name):
            return calls[by_name[name]] if name in by_name else 0

        # io only runs in set-up, which reports io.parse_s instead
        out = {f"{layer}.self_s": s for layer, s in self_s.items() if layer != "io"}
        out["self_sum_s"] = sum(self_s.values())
        out.update({metric: incl(*names) for metric, names in INCLUSIVE.items()})
        out.update({metric: ncalls(name) for metric, name in CALLS.items()})
        c, d = self.counts, self.distinct
        echelons = out["intlinalg.echelon_calls"]
        bases = out["alternating.altbasis_calls"]
        out.update({
            "intlinalg.echelon_distinct_ratio": d["echelon"] / echelons if echelons else 0.0,
            "intlinalg.echelon_density": (
                c["echelon_density_sum"] / c["echelon_density_n"]
                if c["echelon_density_n"] else 0.0
            ),
            "intlinalg.max_entry_bits": self.max_bits,
            "intlinalg.matmul_madds": c["matmul_madds"],
            "multiplicity.builds": c["builds"],
            "multiplicity.simplices_built": c["simplices_built"],
            "multiplicity.cache_hit_ratio": (
                1 - c["builds"] / c["tower_calls"] if c["tower_calls"] else 0.0
            ),
            "alternating.altbasis_distinct_ratio": d["altbasis"] / bases if bases else 0.0,
            "traced_wall_s": wall,
        })
        return out
