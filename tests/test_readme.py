import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_imports_resolve():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [line for line in block.splitlines() if line.startswith(("from ", "import "))]
    assert imports
    exec("\n".join(imports), {})
