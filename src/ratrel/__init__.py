"""Two-tape Buchi automata over infinite words, with a reference relation family."""

from .words import (
    Alphabet,
    AlphabetMismatch,
    BINARY,
    BlockWord,
    GAMMA,
    LassoWord,
    lasso_equal,
)
from .grid import (
    GridWord,
    MalformedPrefix,
    antidiagonal,
    decode_h_prefix,
    encode_h,
    grid_distance_exponent,
    grid_from_json,
    grid_to_json,
    in_P,
)
from .buchi import BuchiAutomaton, buchi_accepts_lasso, ones_automaton
from .twotape import (
    Certificate,
    InvalidAutomaton,
    RunPrefix,
    RunReport,
    SearchOutcome,
    SearchStats,
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
    accepts_lasso_pair,
    bounded_run_search,
    epsilon_normalize,
    run_prefix_valid,
    union,
    validate,
)
from .constructions import (
    Decomposition,
    NotInP,
    RunSchema,
    alpha,
    automaton_T,
    build_decompositions,
    build_run_schema,
    c_automaton,
    c_condition_holds,
    grid_pair,
    grid_pair_in_r1,
    in_alpha_section,
    r2_automaton,
    r_automaton,
    schema_to_run,
    section_member,
)

__version__ = "0.1.0"
