"""Workload definitions for the cold-process benchmark (pure data).

Each workload runs the verify suites of one or more acceptance criteria on
that criterion's grid from ``tests/test_acceptance.py``, with ``max_weight``
lowered by ``SHRINK`` for every suite so that one child process stays within
a few seconds.  Every n and m range, ``degree_cap`` and ``max_len`` is kept.

This module imports nothing from ``spochar``: the parent process only needs
the names, counts and orders, and must stay small (see ``run.py``).
"""

from __future__ import annotations

import random

# max_weight is lowered by this much for every suite (6 -> 2, and 5 -> 1 for
# transition_odd).  At the full grid one `branching` child takes 46 s and one
# `commutation` child 50 s.  A run of 30 s needs more than four children for
# a steady median: at 6 -> 3 a `commutation` run held four children of about
# 4.5 s, and the medians of five runs spread by 0.10 of their median, against
# 0.05 at 6 -> 2.  The layer shares stay the same at 6 -> 2 (see README.md).
SHRINK = 4

_ACCEPTANCE_WEIGHT = 6
_CAUCHY = {"n_range": (0, 2), "m_range": (0, 1), "degree_cap": 5}

# workload -> (suites with their grid overrides, whether the seed shuffles them)
WORKLOADS: dict[str, tuple[tuple[tuple[str, dict], ...], bool]] = {
    # criterion 5
    "branching": (
        (("branching_sp", {}), ("branching_o", {}), ("branching_odd_sp", {})),
        True,
    ),
    # criterion 1
    "commutation": ((("commutation", {}),), False),
    # criterion 3
    "dual_engine": (
        (("fock_vs_determinant", {"n_range": (0, 2), "m_range": (0, 2)}),),
        False,
    ),
    # criteria 2, 4, 6, 7, 8, 9, 10
    "suites_rest": (
        (
            ("orthonormality", {}),
            ("bialternants", {}),
            ("cauchy_sp", _CAUCHY),
            ("cauchy_sp_odd", _CAUCHY),
            ("cauchy_sp_n0", _CAUCHY),
            ("cauchy_o", _CAUCHY),
            ("gt_sum", {}),
            ("transition_odd", {"n_range": (0, 2), "max_weight": 5}),
            ("reductions", {}),
            ("newton", {}),
        ),
        True,
    ),
}

WORKLOAD_NAMES = tuple(WORKLOADS)

# Instances each workload must check at SHRINK; a child whose count differs
# is a failure and its timings are dropped.  At SHRINK = 0 (the acceptance
# grids) the counts are 3734 / 30420 / 3132 / 2309.
GOLDEN = {
    "branching": 592,
    "commutation": 4056,
    "dual_engine": 150,
    "suites_rest": 271,
}

# Layer probes: one public call timed in a fresh child.  `predicts` names the
# workload whose instances_per_s the probe should move; `size` is the number
# of terms (or basis vectors) the call must return.
PROBES = {
    "jt_det_8x8": {"predicts": "branching", "size": 256},
    "h_table": {"predicts": "branching", "size": 34952},
    "mode_row_w12": {"predicts": "commutation", "size": 868},
    "gamma_plus": {"predicts": "dual_engine", "size": 53},
}


def plan(workload: str, seed: int, shrink: int = SHRINK) -> list[tuple[str, dict]]:
    """The suites of `workload` in run order, each with its Grid keywords.

    The seed fixes the order inside `branching` and `suites_rest`, because
    which suite fills the shared caches first is a real property of the
    input, and it is passed on as `Grid.rng_seed`.
    """
    suites, shuffled = WORKLOADS[workload]
    order = list(suites)
    if shuffled:
        random.Random(seed).shuffle(order)
    out = []
    for name, overrides in order:
        grid = dict(overrides)
        grid["max_weight"] = max(0, grid.get("max_weight", _ACCEPTANCE_WEIGHT) - shrink)
        grid["rng_seed"] = seed
        out.append((name, grid))
    return out
