"""Problem bundle tying a chart, mesh, material, loads, and solver choices
together.  One assembly per mesh, on the one (enriched) layout, serves both
methods and every thickness: the penalized system is the leading plain P1
block of the mixed one, and the penalty constant is calibrated once and
shared across refinements."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (AssemblyConfig, FormAssembler, LoadSpec, Material,
                       calibrate_penalty)
from .fe_space import build_dof_layout
from .mesh import Mesh, refine_uniform
from .norms import NormEngine
from .solve import ShellSolution, realize_via_theta
# Unused here; perfbench/tracing.py wraps these names on this module.
from .solve import solve_dg, solve_mixed  # noqa: F401


@dataclass
class ShellProblem:
    chart: object
    mesh: Mesh
    material: Material = field(default_factory=Material)
    epsilon: float = 0.1
    loads: LoadSpec = None
    config: AssemblyConfig = field(default_factory=AssemblyConfig)

    def __post_init__(self):
        self._asm = self._rhs = self._norms = None

    # ------------------------------------------------------------- components
    # Nothing below depends on the thickness or the method: one assembler on
    # the enriched layout, one load vector and one norm engine serve both.

    def _assembler(self) -> FormAssembler:
        if self._asm is None:
            layout = build_dof_layout(self.mesh, self.chart)
            self._asm = FormAssembler(self.mesh, self.chart, layout,
                                      self.material, self.config)
        return self._asm

    def calibrate(self) -> float:
        """The penalty constant: the config's, or one calibrated once on the
        problem's assembler, which the config then keeps."""
        if self.config.penalty_C is None:
            self.config = replace(self.config, penalty_C=calibrate_penalty(
                self._assembler()))
        return self.config.penalty_C

    def assembler(self) -> FormAssembler:
        self.calibrate()
        return self._assembler()

    def rhs(self) -> np.ndarray:
        if self.loads is None:
            raise ValueError("problem has no loads")
        if self._rhs is None:
            self._rhs = self.assembler().load_vector(self.loads)
        return self._rhs

    def norm_engine(self) -> NormEngine:
        if self._norms is None:
            self._norms = NormEngine(self.assembler())
        return self._norms

    # ----------------------------------------------------------------- solving

    def solve(self, method: str, epsilon: float = None,
              loads: LoadSpec = None, last: bool = False) -> ShellSolution:
        """Solve with the mixed enriched method or the penalized one-field
        method, both realized from the one parameterized assembly.  The
        penalized solution is zero on the enrichment DOFs.  `loads` replaces
        the problem's loads for this solve.  `last` says that this is the
        study's last solve: once its load vector and its system are built,
        the assembler drops its forms and its element and edge quadrature
        data before the factor (`realize_via_theta`), and the norm engine
        and the VTK pass rebuild the quadrature data they read.  A study
        that solves again, or reads the forms, on this problem leaves it
        False."""
        if epsilon is None:
            epsilon = self.epsilon
        asm = self.assembler()
        f = self.rhs() if loads is None else asm.load_vector(loads)
        sol = realize_via_theta(asm, method, epsilon, loads_rhs=f, last=last)
        sol.primal = np.pad(sol.primal, (0, len(f) - len(sol.primal)))
        sol.meta.setdefault("penalty_C", asm.config.penalty_C)
        return sol

    # --------------------------------------------------------------- refinement

    def refined(self) -> "ShellProblem":
        """Uniform refinement sharing the calibrated penalty constant."""
        self.calibrate()
        return replace(self, mesh=refine_uniform(self.mesh))
