import ast
import re
import sys
from pathlib import Path

import pytest

import trackstitch

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_resolves():
    for name in trackstitch.__all__:
        assert getattr(trackstitch, name) is not None, name


def test_readme_library_examples_run():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_every_imported_package_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = set()
    for path in Path(trackstitch.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"trackstitch"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the imports
    assert third_party <= declared
