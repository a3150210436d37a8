"""Problem bundle tying a chart, mesh, material, loads, and solver choices
together, with penalty calibration shared across thicknesses and refinements
of the same problem."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import AssemblyConfig, FormAssembler, LoadSpec, Material
# Bound as `calibrate_penalty`, the name perfbench/tracing.py times
# calibration under.
from .assembly import calibrate_assembler as calibrate_penalty
from .fe_space import build_dof_layout
from .mesh import Mesh, refine_uniform
from .norms import NormEngine
from .solve import ShellSolution, realize_via_theta, solve_dg, solve_mixed


@dataclass
class ShellProblem:
    chart: object
    mesh: Mesh
    material: Material = field(default_factory=Material)
    epsilon: float = 0.1
    loads: LoadSpec = None
    config: AssemblyConfig = field(default_factory=AssemblyConfig)
    penalty_C: float = None       # calibrated lazily if None

    def __post_init__(self):
        self._cache = {}

    # ------------------------------------------------------------- components
    # Nothing below depends on the thickness: one assembler, load vector and
    # norm engine per method serve every epsilon.

    def _assembler(self, method: str) -> FormAssembler:
        key = ("asm", method)
        if key not in self._cache:
            layout = build_dof_layout(self.mesh, self.chart,
                                      enrichment=method == "mixed")
            self._cache[key] = FormAssembler(
                self.mesh, self.chart, layout, self.material,
                replace(self.config, penalty_C=self.penalty_C))
        return self._cache[key]

    def calibrate(self) -> float:
        """The penalty constant: the given one, or one calibrated once on the
        forms of the problem's own mixed assembler, which keeps it."""
        if self.penalty_C is None:
            self.penalty_C = calibrate_penalty(self._assembler("mixed"))
        return self.penalty_C

    def assembler(self, method: str) -> FormAssembler:
        self.calibrate()
        return self._assembler(method)

    def rhs(self, method: str) -> np.ndarray:
        if self.loads is None:
            raise ValueError("problem has no loads")
        key = ("rhs", method)
        if key not in self._cache:
            self._cache[key] = self.assembler(method).load_vector(self.loads)
        return self._cache[key]

    # ----------------------------------------------------------------- solving

    def solve(self, method: str, epsilon: float = None,
              via_theta: bool = False, loads: LoadSpec = None) -> ShellSolution:
        """Solve with the mixed enriched method or the penalized one-field
        method; `via_theta` routes both through the single parameterized
        assembly.  `loads` replaces the problem's loads for this solve."""
        if epsilon is None:
            epsilon = self.epsilon
        asm = self.assembler(method)
        f = self.rhs(method) if loads is None else asm.load_vector(loads)
        if via_theta or method == "mixed":
            sol = realize_via_theta(asm, method, epsilon, loads_rhs=f)
        elif method == "dg":
            sol = solve_dg(asm.rho_matrix(), asm.gamma_matrix(),
                           asm.tau_matrix(), f, epsilon)
        else:
            raise ValueError(f"unknown method {method!r}")
        sol.meta.setdefault("penalty_C", asm.config.penalty_C)
        return sol

    def norm_engine(self, method: str) -> NormEngine:
        key = ("norms", method)
        if key not in self._cache:
            self._cache[key] = NormEngine(self.assembler(method))
        return self._cache[key]

    # --------------------------------------------------------------- refinement

    def refined(self) -> "ShellProblem":
        """Uniform refinement sharing the calibrated penalty constant."""
        return ShellProblem(chart=self.chart, mesh=refine_uniform(self.mesh),
                            material=self.material, epsilon=self.epsilon,
                            loads=self.loads, config=self.config,
                            penalty_C=self.calibrate())
