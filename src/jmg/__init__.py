"""jmg: realize graphs as quantum observables and decide joint measurability.

Any finite graph can be realized by projections (and sharp observables) on a
Hilbert space so that two vertices' observables are jointly measurable
exactly when they share an edge; the constructions here do that with exact
rational arithmetic.  For unsharp observables, joint measurability is decided
by a convex feasibility solver over joint observables, and a dilation routine
shows how compatibility does or does not survive the passage to sharp
observables on a larger space.
"""

from .errors import InputError
from .graphs import parse_graph
from .realize import realize_rank_one, restrict_to_span, verify_realization
from .povm import jm_feasible, neumark_dilate, noisy_orthogonal_triple

__version__ = "0.1.0"
