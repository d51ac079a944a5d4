"""Every public name lives in its module, and the package itself imports nothing.

The package once re-exported 68 names from its ``__init__``; each stays
importable from the module that defines it, which is where README names it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import projbraid

NAMES = {
    "invariants": (
        "f_image format_obstruction format_sign_string in_tilde_subgroup occurrence_index parity_vector "
        "parse_sign_string reference_signs sign_action sign_orbit"
    ),
    "projective": (
        "Configuration DegenerateFrameError ProjectiveTransform base_configuration shear_family "
        "sign_string_of singular_subsets"
    ),
    "realization": (
        "AlgebraicTime BaseSignMismatch CertificationError DegenerateKeyframe IdenticallySingularSegment "
        "PathError PLPath SimultaneousEvents SingularEvent TangentialEvent ZeroVectorOnSegment "
        "apply_transform_to_path certify_roundtrip detect_events letter_path load_path_file path_from_word "
        "save_path_file void_path_to_base word_from_path"
    ),
    "solver": (
        "EliminationTrace NotInSubgroupError ParityMismatchError Status Verdict check_trace eliminate_last "
        "equal inner_eliminate solve solve_k3 solve_semi"
    ),
    "words": (
        "CancelPair GroupParams IllegalMoveError InsertPair Letter Move OracleResult ReverseWindow Word "
        "WordSyntaxError apply_move bfs_equal_oracle concat format_word free_reduce free_reduce_with_trace "
        "inverse invert_move parse_word"
    ),
}
EXPORTS = [(module, name) for module, names in NAMES.items() for name in names.split()]


def test_the_former_exports_are_68_names():
    assert len(EXPORTS) == len(set(name for _, name in EXPORTS)) == 68


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_name_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(f"projbraid.{module}"), name)


def test_package_holds_only_its_version():
    public = {name for name in vars(projbraid) if not name.startswith("_")}
    # a submodule that some other import loaded is an attribute of the package
    assert {name for name in public if not isinstance(getattr(projbraid, name), type(projbraid))} == set()
    assert projbraid.__version__


def test_words_loads_no_geometry_or_solver():
    src = Path(projbraid.__file__).resolve().parent.parent
    code = (
        "import sys; import projbraid.words; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('projbraid'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    assert "projbraid.words" in out
    assert not {"projbraid.realization", "projbraid.projective", "projbraid.polys", "projbraid.solver"} & set(out)
