"""The package's public surface, and the design rules its modules keep."""

import ast
import os
import pathlib
import types

import pytest

import toeprange
from toeprange import cli, linalg
from toeprange.curves import dual_quartic, hyperbolicity_test, nonrepresentability_report
from toeprange.operators import (
    block_diagonalization_residual,
    c_mu,
    counterexample_spec,
    free_jacobi_spec,
    is_selfadjoint,
    lifting_residual_max,
    spectrum_match_gap,
    truncation,
)
from toeprange.ranges import flat_table, operator_range, selfadjoint_interval, symbol_ranges

COUNTEREXAMPLE = os.path.join(os.path.dirname(__file__), "..", "specs", "counterexample.json")


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
    the one chunked Hermitian solve, and the steps of
    ``rotated_hermitian_parts`` (the basis stack and its product with the
    angles) are named only there, so no other code builds a stack of
    parts."""
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
    inside = {id(node) for node in ast.walk(solve)}
    steps = ("rotated_hermitian_parts", "_hermitian_terms", "_rotated_parts")
    builders = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in steps
        or isinstance(node, ast.Attribute) and node.attr in steps
    ]
    assert builders
    for node in builders:
        assert id(node) in inside, f"ranges.py:{node.lineno} names {ast.unparse(node)}"


def test_only_antipodes_reads_bottom_eigenpairs():
    """In ``ranges.py`` only ``_antipodes`` reads column 0, the bottom
    eigenpair, of what ``_extreme_eigs`` returns, so the rule that negates it
    for the antipodal direction is written once.  A function returning an
    ``_extreme_eigs(...)`` call counts as a source too, and a name counts
    where its own function assigns it from a source call."""
    path = pathlib.Path(toeprange.__file__).parent / "ranges.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def own_nodes(function):
        # The function's nodes, without those of functions nested in it.
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if not isinstance(node, ast.FunctionDef):
                yield node
                stack.extend(ast.iter_child_nodes(node))

    def calls(node, names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names)

    sources = {"_extreme_eigs"}
    while True:
        wrappers = {
            function.name for function in functions
            if any(isinstance(node, ast.Return) and calls(node.value, sources)
                   for node in own_nodes(function))
        }
        if wrappers <= sources:
            break
        sources |= wrappers
    offenders, assigned = [], 0
    for function in functions:
        names = {
            target.id
            for node in own_nodes(function)
            if isinstance(node, ast.Assign) and calls(node.value, sources)
            for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)
        }
        assigned += len(names)
        offenders += [
            f"ranges.py:{node.lineno} {function.name} reads {ast.unparse(node)}"
            for node in own_nodes(function)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in names
            and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) >= 2
            and isinstance(node.slice.elts[1], ast.Constant) and node.slice.elts[1].value == 0
            and function.name != "_antipodes"
        ]
    assert assigned
    assert offenders == []


def test_documents_are_write_only():
    """The package writes its documents and reads none back: ``src/``
    defines no ``from_dict`` method and no ``parse_*`` reader, and no
    ``_power``, the Python-float twin of ``evaluate_form``'s numpy path."""
    package = pathlib.Path(toeprange.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno} defines {node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name in ("from_dict", "_power") or node.name.startswith("parse_"))
    ]
    assert offenders == []


def test_only_symbol_harmonics_maps_diagonals_to_entries():
    """In ``operators.py`` only ``symbol_harmonics`` reads a spec's
    ``.diagonal(...)`` or ``.diagonals`` to place entries in a matrix;
    truncations, ``C_mu``, symbols and the selfadjoint test are built from
    the harmonics.  The spec's own plumbing (``PeriodicBandedSpec``'s
    methods, ``validate_spec``, ``spec_to_doc`` and ``random_spec``) may
    read them too."""
    path = pathlib.Path(toeprange.__file__).parent / "operators.py"
    tree = ast.parse(path.read_text(), str(path))
    allowed = {"symbol_harmonics", "PeriodicBandedSpec", "validate_spec", "spec_to_doc",
               "random_spec"}
    offenders, readers = [], set()
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("diagonal", "diagonals"):
                readers.add(name)
                if name not in allowed:
                    offenders.append(f"operators.py:{node.lineno} {name} reads {ast.unparse(node)}")
    assert "symbol_harmonics" in readers
    assert offenders == []


def test_cli_only_composes():
    """``cli.py`` names none of the curve builders, size checks and solves
    that the library runs for it: the counterexample's quartic, dual and
    direction count come from ``nonrepresentability_report``, and the
    overlays and their size charge from ``ranges.symbol_ranges``.  Only
    ``ranges.py`` calls ``_check_sweep_size``, and its callers hold a spec."""
    package = pathlib.Path(toeprange.__file__).parent
    banned = {"_check_direction_count", "boundary_quartic", "dual_quartic", "ellipse_family",
              "family_discriminant", "_check_sweep_size", "matrix_numerical_range",
              "symbol_batch"}

    def names(node):
        # A name read or bound, an attribute, or an imported name.
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.alias):
            return {node.name, node.asname}
        return set()

    path = package / "cli.py"
    offenders = [
        f"cli.py:{node.lineno} names {sorted(names(node) & banned)}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if names(node) & banned
    ]
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and names(node.func) == {"_check_sweep_size"}
    }
    assert offenders == []
    assert callers == {"ranges.py"}


def test_one_byte_cap():
    """Only ``linalg.py`` names ``BYTE_CAP``, and only ``check_bytes``
    compares against it, so every size charge reads the one cap at call
    time.  ``curves.py`` imports nothing from ``ranges``, and ``cli.py``
    does not import the ``ranges`` module."""
    package = pathlib.Path(toeprange.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}

    def names(node):
        # A name read or bound, an attribute, or an imported name.
        return {getattr(node, key, None) for key in ("id", "attr", "name", "asname")} - {None}

    namers = {
        name for name, tree in trees.items()
        for node in ast.walk(tree) if any(n.endswith("BYTE_CAP") for n in names(node))
    }
    assert namers == {"linalg.py"}
    linalg_tree = trees["linalg.py"]
    check = next(node for node in ast.walk(linalg_tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "check_bytes")
    compares = [node for node in ast.walk(linalg_tree)
                if isinstance(node, ast.Compare) and "BYTE_CAP" in ast.unparse(node)]
    assert len(compares) == 1 and any(node is compares[0] for node in ast.walk(check))

    def imports(tree):
        # Each module a ``from`` import reads, and each name an import binds.
        sources = {(node.module or "").removeprefix("toeprange.")
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        bound = {alias.name.removeprefix("toeprange.")
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        return sources, bound

    sources, bound = imports(trees["curves.py"])
    assert "ranges" not in sources and "ranges" not in bound
    assert "ranges" not in imports(trees["cli.py"])[1]


@pytest.mark.parametrize(
    "run",
    [
        lambda: operator_range(counterexample_spec(), 3, 3),
        lambda: selfadjoint_interval(free_jacobi_spec(), 3),
        lambda: flat_table(counterexample_spec(), 3, 3),
        lambda: symbol_ranges(counterexample_spec(), 1, 3),
        lambda: hyperbolicity_test(dual_quartic(), 3),
        lambda: nonrepresentability_report(3),
        lambda: truncation(counterexample_spec(), 5),
        lambda: is_selfadjoint(counterexample_spec()),
        lambda: cli.main(["symbol", COUNTEREXAMPLE]),
        lambda: c_mu(counterexample_spec(), 3),
        lambda: block_diagonalization_residual(counterexample_spec(), 3),
        lambda: spectrum_match_gap(counterexample_spec(), 3),
        lambda: lifting_residual_max(counterexample_spec(), 3),
    ],
    ids=["operator_range", "selfadjoint_interval", "flat_table", "symbol_ranges",
         "hyperbolicity_test", "nonrepresentability_report", "truncation", "is_selfadjoint",
         "cli_symbol", "c_mu", "block_diagonalization_residual", "spectrum_match_gap",
         "lifting_residual_max"],
)
def test_one_lowered_cap_reaches_every_charge(monkeypatch, capsys, run):
    monkeypatch.setattr(linalg, "BYTE_CAP", 1)
    try:
        # Only the CLI returns: it prints the refusal and exits with code 3.
        assert run() == 3
        message = capsys.readouterr().err
    except ValueError as exc:
        message = str(exc)
    assert "cap" in message
