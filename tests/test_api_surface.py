"""Every public module-level function and class of the package has a caller
outside the tests: in the package itself, the scripts or the benchmark.
A helper that only tests need belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detperm"
# joint_intensity waits for the whole-configuration verify check that
# evaluates configuration laws (ROADMAP, Direction 4).
EXEMPT = {"joint_intensity"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_non_test_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    used = set()
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in modules
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = sorted(q for q, name in defined.items() if name not in used | EXEMPT)
    assert not unused, f"public names only the tests call: {unused}"
