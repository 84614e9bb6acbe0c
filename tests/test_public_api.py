import re
from pathlib import Path

import trackstitch

README = Path(__file__).resolve().parents[1] / "README.md"


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
