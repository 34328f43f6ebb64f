"""The ledger of the library's defaulted parameters.

A default that only one value flows through is a second statement of that
value: the caller or the config already says it. So `src/` keeps a default
only where callers pass more than one value, and this ledger lists them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eegintent"

KEPT = {
    "cli.load_run_config(args)",  # None for a call without parsed flags
    "cli.main(argv)",  # None reads sys.argv
    "errors.DimensionMismatch.__init__(what)",  # the blob layout messages
    "synth.generate_dataset(path)",  # None in memory, a manifest path to check room for first
}


def defaulted_parameters() -> set[str]:
    """'module.qualname(parameter)' for every parameter with a default."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
            elif isinstance(child, ast.Lambda):
                name = f"{prefix}.<lambda>"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                found.update(f"{name}({a.arg})" for a in defaulted)
            visit(child, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_defaulted_parameters_are_the_kept_ones():
    assert defaulted_parameters() == KEPT
