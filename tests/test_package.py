"""The package's public surface."""

import ast
import pathlib
import types

import toeprange


def test_all_names_resolve_once():
    assert len(toeprange.__all__) == len(set(toeprange.__all__))
    for name in toeprange.__all__:
        assert hasattr(toeprange, name), name


def test_all_is_every_public_binding():
    public = {
        name
        for name, value in vars(toeprange).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(toeprange.__all__) == public


def test_decompositions_go_through_the_linalg_facade():
    """Outside ``linalg.py`` no module calls a ``numpy.linalg`` routine
    other than ``norm`` itself; it passes the routine to ``linalg.lapack``,
    which turns a LAPACK failure into ``EigenSolverError``."""
    package = pathlib.Path(toeprange.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                offenders.append(f"{path.name}:{node.lineno} imports from numpy.linalg")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
                and node.func.attr != "norm"
            ):
                offenders.append(f"{path.name}:{node.lineno} calls np.linalg.{node.func.attr}")
    assert offenders == []


def test_ranges_solves_only_in_extreme_eigs():
    """In ``ranges.py`` ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` appear
    only as the solver handed to ``linalg.lapack`` inside ``_extreme_eigs``,
    the one chunked Hermitian solve."""
    path = pathlib.Path(toeprange.__file__).parent / "ranges.py"
    tree = ast.parse(path.read_text(), str(path))
    (solve,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_extreme_eigs"
    ]
    handed = {
        id(node.args[0]) for node in ast.walk(solve)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lapack"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "linalg"
        and node.args
    }
    named = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
    ]
    assert {node.attr for node in named} == {"eigh", "eigvalsh"}
    for node in named:
        assert id(node) in handed, f"ranges.py:{node.lineno} names np.linalg.{node.attr}"
        assert ast.unparse(node) == f"np.linalg.{node.attr}"
