"""Grammar-compressed 1D/2D strings: bookmark random-access indexes and
constructive query reductions, verified against naive decompression oracles.
"""

from .errors import (
    ArithmeticOverflow,
    CyclicGrammar,
    DanglingReference,
    DimensionMismatch,
    DuplicateRule,
    EmptyLanguage,
    ExpansionTooLarge,
    GrammarError,
    NonUniformInstance,
    NotAnSlp,
    ExtRequiresLengthTwo,
    ParseError,
    PositionOutOfRange,
    PreconditionViolated,
    RangeError,
    TerminalOutOfRange,
)
from .slg import (
    DEFAULT_CAP,
    Slg1,
    Slp1,
    dump_slg1,
    exp_len,
    expand1,
    grammar_size1,
    parse_slg1,
    slg_to_slp,
    validate_slg1,
    validate_slp1,
)
from .slg2d import (
    Horiz,
    Matrix2D,
    Slg2,
    Slp2,
    Vert,
    dims,
    dump_matrix,
    dump_slg2,
    expand2,
    grammar_size2,
    parse_matrix,
    parse_slg2,
    slg2_to_slp2,
    validate_slg2,
    validate_slp2,
)
from .access1d import (
    AccessIndex1,
    access1,
    access1_traced,
    build_index1,
    ceil_log,
    descend1,
    hook_offset1,
    optimal_tau,
)
from .access2d import (
    AccessIndex2,
    access2,
    access2_traced,
    build_index2,
    descend2,
    hook_offset2,
    optimal_tau2,
)
from . import oracle
from . import reductions
from . import gen

__version__ = "0.1.0"
