"""Black-box identification of event-driven switched linear systems.

The package recovers the per-mode dynamics matrices of a switched linear
system from execution traces and actively learns an equivalent labelled
finite automaton through trace and equivalence queries.
"""

from .automaton import (EPSILON, EventAlphabet, Fa, Word, format_word,
                        language_equivalent, language_of, output_of,
                        parse_word, reachable_nodes, reachable_part, run,
                        to_dot)
from .benchgen import GenConfig, random_system
from .errors import (AlphabetMismatch, AmbiguousLabel, BudgetExceeded,
                     DimensionMismatch, GenerationFailed, InvalidEvent,
                     NotACounterexample, NotClosed, ParseError, SingularBasis,
                     SwitchLearnError, ValidationError)
from .learner import (LearnResult, ObservationStore, build_hypothesis,
                      close_store, learn, process_counterexample)
from .linalg import (LABEL_TOL, PIVOT_TOL, identity, is_full_rank,
                     mat_approx_eq, recover_transform)
from .oracle import (BoundedTestingEquivalenceOracle, EquivalenceOracle,
                     ObservationOracle, QueryStats, WhiteBoxEquivalenceOracle,
                     WhiteBoxObservationOracle)
from .output_query import LabelRegistry, cached_output, cached_outputs, compute_output
from .switched_system import (SwitchedSystem, Violation, execute, load_json,
                              save_json, validate)

__version__ = "0.1.0"
