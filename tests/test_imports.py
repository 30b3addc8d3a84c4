import ast
from pathlib import Path

import xlab

# Imported names that a module keeps without reading them itself, with the reason.
_KEPT = {("convert", "closed_form_x"): "tests/test_acceptance.py reads convert.closed_form_x"}


def _unused_imports(path: Path) -> list:
    """The names that `path` imports at its top level and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    src = Path(xlab.__file__).parent
    unused = {(path.stem, name) for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused == set(_KEPT)


def test_an_unread_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                    "from numpy.random import PCG64, Generator as G\nprint(sys.argv, G)\n")
    assert _unused_imports(path) == ["PCG64", "os"]
