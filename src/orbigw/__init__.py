"""
orbigw: exact higher genus Gromov-Witten theory of cyclic quotient orbifolds.

The package reconstructs the genus zero data of the order-n cyclic quotient
singularity from explicit series, builds the polynomial rings in which the
higher genus potentials are finitely generated, assembles those potentials
through the semisimple classification graph sum, and machine-verifies the
holomorphic anomaly equations as exact identities in the free ring.

Everything is exact: series and ring elements are rational, and cyclotomic
numbers in Q(zeta_n) appear only where a column of the P matrix is written
out or a check fails.  There is no floating point in the computational core.
"""

from .cyclotomic import Cyclotomic
from .genus0 import GenusZeroData, ModelConfig
from .graphs import StableGraph, enumerate_stable_graphs
from .hae import HaeReport, check_hae, verify_hae, verify_hae_policies
from .pmatrix import PColumn, PMatrixData, build_pmatrix, compute_P_column, verify_pmatrix
from .potentials import ContributionTables, Potential, assemble_F, audit_generators
from .psi import psi_integral
from .report import Report
from .ring import RingContext, RingElement, certify_rules, fit_laurent_in_L
from .series import Series
from .stirling import stirling_first

__all__ = [
    "Cyclotomic",
    "Series",
    "stirling_first",
    "ModelConfig",
    "GenusZeroData",
    "RingContext",
    "RingElement",
    "certify_rules",
    "fit_laurent_in_L",
    "PColumn",
    "PMatrixData",
    "build_pmatrix",
    "compute_P_column",
    "verify_pmatrix",
    "psi_integral",
    "StableGraph",
    "enumerate_stable_graphs",
    "ContributionTables",
    "Potential",
    "assemble_F",
    "audit_generators",
    "HaeReport",
    "check_hae",
    "verify_hae",
    "verify_hae_policies",
    "Report",
]

__version__ = "0.1.0"
