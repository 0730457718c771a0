"""Layering: a toll point travels as a row of an ``(n, 2m)`` array from the
initial plan to the simulator, ``TollVector`` stays at the edge, only the
command line reads or writes files, one RK step is the body of every RK loop, and
``cli.main`` alone resolves the scenario of a command."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tollopt"
# the definition, the package exports and the command line (``--toll`` and
# ``cmd_simulate``) may use TollVector anywhere
EDGE = {"toll.py", "__init__.py", "cli.py"}


def _mentions(node: ast.AST) -> int:
    """How often ``node`` names TollVector: as a name, an attribute or an import."""
    return sum((isinstance(n, ast.Name) and n.id == "TollVector")
               or (isinstance(n, ast.Attribute) and n.attr == "TollVector")
               or (isinstance(n, ast.alias) and n.name == "TollVector")
               for n in ast.walk(node))


def _allowed(module: str, stmt: ast.stmt) -> bool:
    """simnet imports TollVector for ``simulate``, the single-replication call."""
    return module == "simnet.py" and (
        isinstance(stmt, ast.ImportFrom)
        or (isinstance(stmt, ast.FunctionDef) and stmt.name == "simulate"))


def test_toll_vector_is_used_only_at_the_edge():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {"doe.py", "infill.py", "simnet.py", "surrogate.py", "tlp.py"} <= set(modules)
    outside = [f"{name}:{stmt.lineno}" for name, tree in modules.items() if name not in EDGE
               for stmt in tree.body if _mentions(stmt) and not _allowed(name, stmt)]
    assert outside == []
    simulate = next(stmt for stmt in modules["simnet.py"].body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "simulate")
    assert _mentions(simulate) > 0


FILE_IO_MODULES = {"csv", "json", "os"}


def _file_io(node: ast.AST) -> list[str]:
    """What ``node`` does of file I/O: imports of csv, json or os, and calls of ``open``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] in FILE_IO_MODULES]
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] in FILE_IO_MODULES:
            found.append(n.module)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open":
            found.append(f"open() at line {n.lineno}")
    return found


def test_only_the_command_line_reads_and_writes_files():
    # every run artifact is formatted in one module; the library computes
    uses = {path.name: _file_io(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert uses["cli.py"]
    assert {name: found for name, found in uses.items() if name != "cli.py" and found} == {}


def test_only_rk_step_fits_and_proposes():
    # one driver loop: whatever an RK iteration adds goes into rk_step
    tree = ast.parse((SRC / "tlp.py").read_text())
    callers = {stmt.name for stmt in ast.walk(tree) if isinstance(stmt, ast.FunctionDef)
               for n in ast.walk(stmt) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id in ("fit", "propose_infill")}
    assert callers == {"rk_step"}


def test_only_main_resolves_a_scenario():
    # main loads, overrides and checks a command's scenario once and hands it on;
    # validate resolves the config.yaml of the run directory it is given
    tree = ast.parse((SRC / "cli.py").read_text())
    callers = {stmt.name for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")
               for n in ast.walk(stmt) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id in ("load_scenario", "resolve_problem", "build_spec")}
    assert callers == {"cmd_validate"}
