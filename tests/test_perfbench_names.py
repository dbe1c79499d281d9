"""The kzchain names and command lines the benchmark under perfbench/
reaches.

perfbench/spans.py wraps each function named in TRACED by looking it up
with getattr, and perfbench/workloads.py calls into the package directly
and runs `kzchain` command lines through `Repeat.cli`, so deleting or
renaming one of those names or flags breaks the benchmark, not any other
test.  These tests read both files and change neither.
"""

import argparse
import ast
import importlib
from pathlib import Path

from kzchain.cli import _build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text())


def _resolve(module, name):
    """`from module import name`: a submodule or a module attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def _chain(node):
    """(root name, [attr, ...]) of an a.b.c expression, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def test_traced_functions_resolve():
    (traced,) = [ast.literal_eval(node.value) for node in ast.walk(_parse("spans.py"))
                 if isinstance(node, ast.AnnAssign)
                 and getattr(node.target, "id", None) == "TRACED"]
    assert "mode_dynamics.run_quench" in traced
    for name in traced:
        module, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"kzchain.{module}"), fn)), name


def test_workload_names_resolve():
    tree = _parse("workloads.py")
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kzchain":
                    importlib.import_module(alias.name)
                    bound["kzchain"] = importlib.import_module("kzchain")
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "kzchain":
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
    used = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain is None or chain[0] not in bound:
            continue
        obj = bound[chain[0]]
        for attr in chain[1]:
            assert hasattr(obj, attr), f"{'.'.join([chain[0]] + chain[1])}"
            obj = getattr(obj, attr)
        used.add(".".join([chain[0]] + chain[1]))
    assert {"kzchain.cli.main", "oracle.evolve_lindblad",
            "circuit.parse_qasm3"} <= used
    # workloads.py validates the states evolve_lindblad returns
    oracle = importlib.import_module("kzchain.oracle")
    assert callable(oracle.DenseState.validate)


def test_workload_command_lines_parse():
    tree = _parse("workloads.py")
    flags = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cli"
                and _chain(node.func.value) == ("rep", [])):
            command, *rest = [a.value for a in node.args
                              if isinstance(a, ast.Constant)]
            flags.setdefault(command, set()).update(
                a for a in rest if a.startswith("--"))
    # Repeat.cli appends its one flag literal to quench in serial repeats
    (cli,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "cli"]
    appended = {node.value for node in ast.walk(cli)
                if isinstance(node, ast.Constant)
                and str(node.value).startswith("--")}
    assert appended == {"--serial"}
    flags["quench"] |= appended
    assert sorted(flags) == ["collapse", "emit-qasm", "oracle", "quench"]
    assert {"--mask", "--trotter"} <= flags["quench"]

    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    for command, wanted in flags.items():
        accepted = subparsers.choices[command]._option_string_actions
        assert wanted <= set(accepted), (command, wanted - set(accepted))
