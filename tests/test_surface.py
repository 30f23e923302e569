"""The package's public surface: each name listed once, in its layer module's ``__all__``."""

import ast
import importlib
from itertools import chain
from pathlib import Path

import pytest

import gkslgraph as gk

LAYERS = ("basis", "generator", "digraph", "kernel", "io")

#: Public names that nothing in the package calls, and why each stays.
UNCALLED = {
    "standard_position": "the scalar index of a label, with which a user fills gamma",
    "superposition_block": "the pair block of a decay channel between superpositions",
    "gm_diag_dissipator_coeff": "the Gell-Mann dissipator spectrum of the paper",
    "kernel_containment_check": "ker L inside ker K, the paper's result for any generator",
    "consistency_and_bound": "the paper's component bound on the kernel dimension",
    "load_spec": "read by the benchmark's own tests",
    "gellmann": "the paper's basis matrices; W's diagonal block is their closed form",
}

#: Names the surface once had, now gone or moved to ``tests/helpers``.
REMOVED = (
    "gellmann_position",
    "hs_inner",
    "basis_change_matrix",
    "operator_basis_change",
    "lindblad_dissipator",
    "laplacian",
    "sinks_and_singular_2sinks",
    "diagonal_kernel",
    "block_kernel",
    "SinkReport",
    "GellMannSpec",
)


def layer(name):
    return importlib.import_module(f"gkslgraph.{name}")


def test_package_lists_exactly_the_layers_names():
    listed = list(chain.from_iterable(layer(name).__all__ for name in LAYERS))
    assert gk.__all__ == ["__version__", *listed]
    assert len(set(gk.__all__)) == len(gk.__all__)


def test_every_listed_name_resolves_to_its_layers_object():
    for name in LAYERS:
        for attr in layer(name).__all__:
            assert getattr(gk, attr) is getattr(layer(name), attr)
    assert isinstance(gk.__version__, str)


def test_every_listed_name_is_used_by_the_package_or_named_as_uncalled():
    # A name counts as used where some module of the package reads it: a
    # call, a type it builds or raises, a constant.
    used = set()
    for path in Path(gk.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(gk.__all__) - used - {"__version__"}
    assert sorted(unused) == sorted(UNCALLED)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from gkslgraph import {name}", {})
    assert not any(hasattr(layer(module), name) for module in LAYERS)
