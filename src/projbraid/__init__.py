"""Word problem and projective path realization for subset-indexed involution groups.

The group on k-subsets of {1..n} is generated by involutions with
far-commutation and palindromic window relations.  For n = k + 1 this
package decides (k = 3) or semi-decides (k >= 4) the word problem through
an obstruction map into a free product, rewrites words off their last
generator with replayable traces, and realizes words as piecewise linear
motions of point configurations in projective space whose degeneration
events spell the word back out, all in exact rational arithmetic.
"""

from .invariants import (
    MoveInvariants,
    f_image,
    format_obstruction,
    format_sign_string,
    in_tilde_subgroup,
    occurrence_index,
    parity_vector,
    parse_sign_string,
    reference_signs,
    sign_action,
    sign_orbit,
)
from .projective import (
    Configuration,
    DegenerateFrameError,
    ProjectivePoint,
    ProjectiveTransform,
    base_configuration,
    det_subset,
    is_general_position,
    shear_family,
    sign_string_of,
    singular_subsets,
)
from .realization import (
    AlgebraicTime,
    BaseSignMismatch,
    CertificationError,
    DegenerateKeyframe,
    IdenticallySingularSegment,
    PathError,
    PLPath,
    SimultaneousEvents,
    SingularEvent,
    TangentialEvent,
    ZeroVectorOnSegment,
    apply_transform_to_path,
    certify_roundtrip,
    detect_events,
    letter_path,
    load_path_file,
    path_from_word,
    save_path_file,
    void_path_to_base,
    word_from_path,
)
from .solver import (
    EliminationTrace,
    NotInSubgroupError,
    ParityMismatchError,
    Status,
    Verdict,
    check_trace,
    eliminate_last,
    equal_k3,
    inner_eliminate,
    solve_k3,
    solve_semi,
)
from .words import (
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    Move,
    OracleResult,
    ReverseWindow,
    SwapAdjacent,
    Word,
    WordSyntaxError,
    apply_move,
    bfs_equal_oracle,
    concat,
    format_word,
    free_reduce,
    free_reduce_with_trace,
    inverse,
    invert_move,
    parse_word,
)

__version__ = "0.1.0"
