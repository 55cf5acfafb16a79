"""Every name that ``girthcover/__init__.py`` exports is used outside the
tests: by another library module, by the benchmark in ``perfbench/`` (as a
name, or as a tracer target), or in the README's entry-point block.  A check
that only the tests call belongs in ``tests/conftest.py``."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "girthcover"


def names_used(path: Path) -> set:
    """The names and attribute names that the code of ``path`` refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def imported_names(code: str) -> set:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def tracer_targets() -> set:
    """The functions, methods and classes that the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, _, attr, _, _ in tracer.TARGETS} | {
        owner.partition(":")[2] for _, owner, _, _, _ in tracer.TARGETS
    }


def readme_entry_points() -> set:
    section = (ROOT / "README.md").read_text().split("## Library entry points", 1)[1]
    return imported_names(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    used = set().union(*map(names_used, sources)) | tracer_targets() | readme_entry_points()
    unused = sorted(imported_names((PACKAGE / "__init__.py").read_text()) - used)
    assert not unused, f"exported, but used by nothing outside the tests: {unused}"
