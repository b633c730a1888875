"""Exact universal symplectic/orthogonal character toolkit.

Two independent engines compute the same family of characters: determinants
over truncated complete-homogeneous series (`characters`) and a bosonic
Fock-space operator calculus (`fock`).  The `verify` module turns every
identity relating them into a bounded exact check.
"""

from .characters import bialternant, o_intermediate_reduce, schur, skew, universal
from . import characters, fock, partitions, ring, series
from .fock import (
    FockVector,
    ZeroModeRequested,
    apply_mode,
    gamma_plus,
    heisenberg,
    ket,
    matrix_element,
    pairing,
    vacuum,
)
from .partitions import (
    EMPTY,
    GTChain,
    Partition,
    PartitionTooLong,
    enumerate_partitions,
    gt_chains,
    interlaces,
    partitions_of,
    subpartitions,
)
from .ring import (
    DimensionCapExceeded,
    LaurentPoly,
    MissingAssignment,
    NonIntegerCoefficient,
    NonSquareMatrix,
    SlotOverflow,
    VarName,
    ZeroAssignedToLaurentVariable,
    var,
    xvar,
    yvar,
    zvar,
)
from .series import HSpec, check_newton, h_seq
from .verify import CheckReport, Grid, SUITE_NAMES, run_suite

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache the package keeps: each `lru_cache` and the Fock
    basis-id table.  Later results are the same; they are only recomputed."""
    for module in (characters, fock, partitions, ring, series):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    fock.PARTS.clear()
    fock._PID.clear()
