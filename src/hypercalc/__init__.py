"""Error-bounded evaluation of bracket-notation hyperoperation expressions.

The expression language builds every number from the constant `1` and
bracketed binary operator runs; run length is the operation's rank
(addition, multiplication, exponentiation, tetration, ...), with `-` and
`/` runs the inverse families.  Evaluation is exact through ranks 1-2 and
returns rigorous Balls (center plus error radius) beyond, rendered as
certified base-b digit expansions.
"""

from .balls import Ball
from .engine import (
    BasebExpansion,
    EvalResult,
    NumericContext,
    adaptive_evaluate,
    adaptive_render,
    evaluate,
    to_base_b,
    trace_reduce,
)
from .errors import (
    AmbiguityError,
    ConvergenceError,
    DomainError,
    HypercalcError,
    ParseError,
    PrecisionError,
    ResourceError,
)
from .farey import FareyEntry, FareyIndex, farey_row, locate
from .hyperops import hyper_forward, hyper_inverse_minus, hyper_inverse_slash
from .midops import SeriesConfig, exp_e, ln_e, log, power, root
from .rationals import gcd
from .rootfind import Bracket, RootConfig, brent, expand_upper
from .terms import (
    Chain,
    Leaf,
    Node,
    OpKind,
    Operator,
    Term,
    TraceEvent,
    parse,
    render,
)

__all__ = [
    "AmbiguityError",
    "Ball",
    "BasebExpansion",
    "Bracket",
    "Chain",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "FareyEntry",
    "FareyIndex",
    "HypercalcError",
    "Leaf",
    "Node",
    "NumericContext",
    "OpKind",
    "Operator",
    "ParseError",
    "PrecisionError",
    "ResourceError",
    "RootConfig",
    "SeriesConfig",
    "Term",
    "TraceEvent",
    "adaptive_evaluate",
    "adaptive_render",
    "brent",
    "evaluate",
    "exp_e",
    "expand_upper",
    "farey_row",
    "gcd",
    "hyper_forward",
    "hyper_inverse_minus",
    "hyper_inverse_slash",
    "ln_e",
    "locate",
    "log",
    "parse",
    "power",
    "render",
    "root",
    "to_base_b",
    "trace_reduce",
]

__version__ = "0.1.0"
