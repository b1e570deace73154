"""The README's "Library sketch" runs, and each commented result holds."""

import re
from pathlib import Path

import srginv

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_library_sketch_results():
    namespace = {"SrgParams": srginv.SrgParams}
    statements, checks = [], []
    for line in library_sketch():
        code, _, want = line.partition("#")
        if want.strip():
            checks.append((code.strip(), want.strip()))
        else:
            statements.append(line)
    exec("\n".join(statements), namespace)
    assert len(checks) == 4
    for code, want in checks:
        assert eval(code, namespace) == eval(want, namespace), code
