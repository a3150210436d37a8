"""Finite-element toolkit for thin-shell problems on parameterized
midsurfaces: a mixed (stress-assisted) method robust in the bending-dominated
regime, a penalized one-field method for membrane/shear-dominated and
intermediate shells, and an asymptotic-regime detector."""

from .assembly import (AssemblyConfig, CalibrationError, FormAssembler,
                       LoadSpec, Material, calibrate_penalty)
from .driver import ShellProblem
from .expr import (EvalDomainError, ExprError, differentiate, evaluate,
                   parse, simplify, to_string)
from .fe_space import DofLayout, SpaceError, build_dof_layout
from .geometry import (Chart, DegenerateChartError, DomainError,
                       ExpressionChart, GeometryError, SymbolicChart,
                       eval_elastic, make_chart)
from .manufactured import ManufacturedSolution
from .mesh import (Mesh, MeshError, generate_rect_mesh, load_mesh,
                   mesh_condition_report, refine_uniform, save_mesh)
from .norms import NormEngine, NormReport
from .regime import (RegimeReport, VERDICT_BENDING, VERDICT_INCONCLUSIVE,
                     VERDICT_NON_BENDING, detect_regime, recommend_solution)
from .solve import (ShellSolution, SolverError, realize_via_theta, solve_dg,
                    solve_mixed)

__version__ = "0.1.0"
