"""The benchmark's workloads: which maps, and which public call runs on each.

Why each workload exists, and which layers it stresses or bypasses, is in
README.md next to this file.  A workload's maps come from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import inputs

FOLD_M = 10

# Lift profiles: {(dimension, lift count): number of Y-simplices}.  Each
# recipe fixes the W^k sizes, so every seed costs about the same.  ``draws``
# is set so that a draw without a match is a one-in-10^8 event at the
# measured match rates (17 %, 29 %, 3.9 %, 5.6 %).
VERIFY_RECIPES = (
    dict(n_vertices=5, n_triangles=2, n_edges=2, max_lifts=2, merges=2, draws=100,
         profile={(0, 1): 3, (0, 2): 1, (1, 1): 3, (1, 2): 2, (2, 1): 2}),
    dict(n_vertices=5, n_triangles=2, n_edges=2, max_lifts=2, merges=1, draws=60,
         profile={(0, 1): 3, (0, 2): 1, (1, 1): 4, (1, 2): 1, (2, 1): 2}),
)
GVZSS_RECIPES = (
    dict(n_vertices=6, n_triangles=3, n_edges=2, max_lifts=3, merges=2, draws=500,
         profile={(0, 1): 2, (0, 2): 2, (1, 1): 3, (1, 2): 2, (1, 3): 1, (2, 1): 3}),
    dict(n_vertices=6, n_triangles=3, n_edges=2, max_lifts=3, merges=2, draws=400,
         profile={(0, 1): 2, (0, 2): 2, (1, 1): 2, (1, 2): 2, (1, 3): 1,
                  (2, 1): 1, (2, 2): 1}),
)
VERIFY_PER_RECIPE = 5
NAMED = ("identity", "fold", "double_cover", "figure_eight", "disc_to_rp2")


@dataclass(frozen=True)
class Workload:
    name: str
    module: str  # icss module holding the job function
    job: str  # public function called once per map
    maps: Callable  # seed -> [(label, map-document payload)]
    headline: bool = False  # also check the folded-disc E^1_{1,0} = Z/2


def _fold_maps(seed: int) -> list:
    rng = random.Random(seed)
    disc = inputs.folded_disc(FOLD_M)
    return [(f"folded_disc({FOLD_M})#{i}", inputs.shuffled(disc, rng)) for i in range(2)]


def _gvzss_maps(seed: int) -> list:
    rng = random.Random(seed)
    out = [("disc_to_rp2", inputs.shuffled(inputs.NAMED_MAPS["disc_to_rp2"], rng))]
    for i, recipe in enumerate(GVZSS_RECIPES):
        doc = inputs.random_quotient(rng, **recipe)
        out.append((f"quotient3.{i}", inputs.shuffled(doc, rng)))
    return out


def _verify_maps(seed: int) -> list:
    rng = random.Random(seed)
    out = [(name, inputs.shuffled(inputs.NAMED_MAPS[name], rng)) for name in NAMED]
    for i, recipe in enumerate(VERIFY_RECIPES):
        for j in range(VERIFY_PER_RECIPE):
            doc = inputs.random_quotient(rng, **recipe)
            out.append((f"quotient2.{i}.{j}", inputs.shuffled(doc, rng)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("icss_fold", "icss.spectral", "icss_report", _fold_maps, headline=True),
        Workload("gvzss_lifts", "icss.spectral", "gvzss_report", _gvzss_maps),
        Workload("verify_small", "icss.verify", "run_all", _verify_maps),
    )
}


def top_space(workload: Workload, doc: dict) -> dict:
    """The largest multiple-point space the job builds, predicted from the
    lift counts: W^(dim Y + 3) for the W-grid jobs, D^(max lifts) for ICSS."""
    dim_y = max(len(s) for s in doc["y"]["simplices"]) - 1
    max_lifts = max(inputs.lift_counts(doc).values())
    if workload.job == "icss_report":
        return {"space": f"D^{max_lifts}", "simplices": inputs.w_size(doc, max_lifts, True)}
    k = dim_y + 3
    return {"space": f"W^{k}", "simplices": inputs.w_size(doc, k)}
