"""The package entry: lazy exports, and the one-BLAS-thread default that only
the command line sets."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circulant_mub
from circulant_mub import cli

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the export list, by home module
EXPORTS = {
    "phase_ring": "phase_of_omega root_table square_phase to_complex triangular_phase",
    "linalg": (
        "CheckResult CirculantMatrix DenseUnitary DiagonalUnitary adjoint build_clock build_fourier "
        "build_index_reversal build_phased_fourier build_rotation build_shift build_square_diagonal "
        "build_triangular_diagonal circulant_deviation circulant_multiply circulant_power "
        "default_tolerance diagonalize_circulant is_unitary is_unitary_hadamard multiply power "
        "rotation_scalar"
    ),
    "sequences": (
        "BiunimodularityReport as_sequence autocorrelation canonical_form dft_sequence "
        "exhaustive_biunimodular gauss_sequence is_biunimodular"
    ),
    "gauss": (
        "GaussSumSpec gauss_identity_sweep gauss_sum_direct gauss_sum_reciprocity is_prime "
        "smallest_nontrivial_divisor verify_even_gauss"
    ),
    "mub": (
        "MubFamily Recipe UnbiasednessReport build_family negative_check_even verify_family"
    ),
}


def run_child(code: str, **variables: str) -> str:
    """Run code in a fresh interpreter whose environment sets none of the
    BLAS thread variables but those given; return its last line of stdout."""
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(circulant_mub.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_numpy_and_sets_no_variable():
    code = (
        "import json, os, sys\n"
        "import circulant_mub\n"
        "print(json.dumps(['numpy' in sys.modules, [os.environ.get(k) for k in %r]]))\n"
        "assert circulant_mub.mub.verify_family is circulant_mub.verify_family"
    ) % (THREAD_VARIABLES,)
    assert json.loads(run_child(code)) == [False, [None, None, None]]


def test_every_export_resolves_to_the_object_of_its_home_module():
    expected = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(circulant_mub.__all__) == sorted(expected)
    for name, module in expected.items():
        home = importlib.import_module(f"circulant_mub.{module}")
        assert getattr(circulant_mub, name) is getattr(home, name), name
    namespace = {}
    exec("from circulant_mub import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(expected)
    with pytest.raises(AttributeError, match="no attribute 'verify'"):
        circulant_mub.verify


# python -m circulant_mub, then the console script's entry(), each in a fresh
# interpreter; the OPENBLAS_NUM_THREADS the CLI process ends up with is printed
MODULE_ENTRY = (
    "import os, runpy, sys\n"
    "sys.argv = ['circulant-mub', '--version']\n"
    "try:\n"
    "    runpy.run_module('circulant_mub', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
)
SCRIPT_ENTRY = (
    "import os, sys\n"
    "from circulant_mub.__main__ import entry\n"
    "sys.argv = ['circulant-mub', '--version']\n"
    "try:\n"
    "    entry()\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
)


@pytest.mark.parametrize("code", [MODULE_ENTRY, SCRIPT_ENTRY], ids=["module", "script"])
@pytest.mark.parametrize(
    "variables, expected",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
        ({"GOTO_NUM_THREADS": "2"}, "None"),
    ],
)
def test_cli_entry_defaults_to_one_blas_thread_unless_one_is_chosen(code, variables, expected):
    assert run_child(code, **variables) == expected


def test_importing_cli_sets_no_variable():
    code = "import os\nimport circulant_mub.cli\nprint([os.environ.get(k) for k in %r])" % (THREAD_VARIABLES,)
    assert run_child(code) == "[None, None, None]"


def test_console_script_is_the_one_entry_point():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'circulant-mub = "circulant_mub.__main__:entry"'
    assert not hasattr(cli, "entry")
