"""Regular pentagon contact representations of inner triangulations of a 5-gon."""

from .forests import FiveColorForest, fcf_from_schnyder, schnyder_wood, validate_fcf
from .layout import emit, induced_fcf, realize, verify
from .linsys import assemble, solve
from .orientations import (
    Alpha5Orientation,
    StackExtension,
    ccw_facial_cycles,
    chi,
    enumerate_alpha5,
    flip,
    flip_lattice,
    psi,
    stack_extension,
)
from .planarmap import (
    Triangulation,
    build_from_edges,
    contract_for_schnyder,
    generate_random,
    validate,
    wheel5,
)
from .q5 import PHI, Q5
from .signs import classify_and_extract
from .skeleton import build_skeleton
from .solveloop import iterate, progress_check

__version__ = "0.1.0"
