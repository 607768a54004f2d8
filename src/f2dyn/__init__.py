"""Dynamics of x -> a*x^(2^k) + b and its reciprocal over binary fields.

The package builds finite fields F_{2^n}, decomposes the projective line
into cycles under the two map families, explains the cycle lengths through
supersingular curves and their group structure, and conjugates reciprocal
maps into the normal form x -> (c*x^(2^k))^(-1).
"""

from .fields import (
    BinaryField,
    ExtensionEmbedding,
    ExtensionRootCounter,
    FieldElement,
    FieldMismatchError,
    InvariantViolationError,
    ResourceLimitError,
    SubsetXorSolver,
    extension_of,
    nth_roots,
    polynomial_roots,
)
from .maps import (
    ClosedFormIterate,
    CycleStructure,
    MapSpec,
    ProjPoint,
    QuarticReduction,
    Semilinear,
    closed_form,
    reduce_to_quartic,
)
from .curves import (
    CurvePoint,
    CurveSpec,
    CycleCatalogEntry,
    GroupStructure,
    curve_from_map,
    cycle_catalog,
    group_structure,
    lift_x,
    point_add,
    point_count,
    predict_orbit_length,
)
from .conjugacy import (
    ConjugacyData,
    TauMap,
    bluher_counts,
    bluher_distribution,
    bluher_root_count,
    fixed_point_count,
    solve_conjugation,
    verify_conjugation,
)
from .reporting import (check_prediction, cycle_labels, cycles_to_dict,
                        element_echo, emit_dot, point_label,
                        report_text, to_json)

__version__ = "0.1.0"

# The public surface is the import block above: every name bound here that
# one of the package's modules defines.
__all__ = sorted(name for name, value in vars().items()
                 if getattr(value, "__module__", "").startswith("f2dyn."))
