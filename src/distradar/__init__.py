"""Distributed radar imaging with consensus and sharing ADMM."""

__version__ = "0.1.0"

from .model import (ClusterGeometry, ForwardOperator, SceneGrid,
                    backprojection_image, estimate_phase_matrix, make_operator)
from .simulate import (PhaseHistory, Scatterer, SimScenario,
                       make_uniform_clusters, rasterize_scene,
                       synthesize_measurements)
from .solvers import (CADMM, SADMM, CompositeResult, ReconstructionResult,
                      SolverConfig, SolverState, composite_baseline, run)

__all__ = [
    "CADMM", "SADMM", "ClusterGeometry", "CompositeResult", "ForwardOperator",
    "PhaseHistory", "ReconstructionResult", "Scatterer", "SceneGrid",
    "SimScenario",
    "SolverConfig", "SolverState", "backprojection_image",
    "composite_baseline", "estimate_phase_matrix", "make_operator",
    "make_uniform_clusters", "rasterize_scene", "run",
    "synthesize_measurements",
]
