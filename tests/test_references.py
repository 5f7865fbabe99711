"""Every public name of the package is used by the program itself.

A public top-level function or class of `src/momentloc`, or a public `Tape`
method, must be referenced as code (a name, an attribute or an imported
name) somewhere in `src/`, `perfbench/` or `scripts/`. Tests do not count:
a helper that only tests call belongs in `tests/`. Nor does an attribute of
numpy: `np.tanh` is not a use of `Tape.tanh`. The few names that only
the acceptance gate or a reader of an artifact needs are listed with why.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALLOWED = {
    "Tape.matmul": "criterion 02 checks its gradient by finite differences",
    "Tape.max_select": "criterion 02 checks its gradient by finite differences",
    "Tape.sigmoid": "criterion 02 checks its gradient by finite differences",
    "Tape.slice1d": "criterion 02 checks its gradient by finite differences",
    "Tape.tanh": "criterion 02 checks its gradient by finite differences",
    "trainer.example_scores": "criterion 02 calls it; the benchmark tracer names it only as a string",
    "dataset.load_truth": "the reader of the truth.json that `gen` writes",
}


def _public_definitions() -> set[str]:
    found = set()
    for path in sorted((ROOT / "src" / "momentloc").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.add(f"{path.stem}.{node.name}")
            if node.name == "Tape":
                found.update(f"Tape.{m.name}" for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return found


def _of_numpy(node: ast.Attribute) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "perfbench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and not _of_numpy(node):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_program():
    defined = _public_definitions()
    used = _referenced_names()
    unused = {d for d in defined if d.rsplit(".", 1)[1] not in used}
    assert unused - set(ALLOWED) == set(), "no caller outside tests/"
    assert set(ALLOWED) - unused == set(), "allowed but used, or no longer defined"
