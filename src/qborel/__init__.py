"""qborel: numerical (q-)Borel-Laplace summation of divergent series solutions
of linear differential and q-difference equations, with confluence experiments
(q -> 1) for sums, Stokes data and basic hypergeometric closed forms."""

__version__ = "0.1.0"

from .errors import QBorelError  # noqa: F401
from .series import (  # noqa: F401
    Polynomial,
    PowerSeries,
    SectorPoint,
    gamma,
    q_bracket,
    q_factorial,
    ramify,
    section,
)
from .operators import (  # noqa: F401
    LinearOperator,
    NewtonPolygon,
    CharPolynomial,
    apply_operator,
    borel_plane_operator,
    characteristic_polynomial,
    newton_polygon,
    parse_operator,
    serialize_operator,
    solve_series,
)
from .classical import (  # noqa: F401
    DirectionSet,
    SummationChain,
    SummationLadder,
    SummedFunction,
    build_ladder,
    formal_borel,
    laplace_along_ray,
    multisum,
    singular_directions,
    stokes_jump,
    summation_chain,
)
from .qspecial import (  # noqa: F401
    QParameter,
    eq_exp,
    lambda_char,
    lambda_matrix,
    lq,
    pochhammer,
    q_exp_matrix,
    theta,
)
from .qsummation import (  # noqa: F401
    continuous_q_laplace,
    discrete_q_laplace,
    jackson_integral,
    q_borel,
    q_continuation,
    q_multisum,
    q_stokes_jump,
    q_summation_chain,
    rz_borel,
    theta_q_laplace,
    validate_confluence_family,
)
from .hypergeom import (  # noqa: F401
    FParams,
    PhiParams,
    classical_limit_rhs,
    connection_infinity,
    qsum_closed_form,
    rF,
    rphi,
    rphi_operator,
)
