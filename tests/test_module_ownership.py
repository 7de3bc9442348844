"""Each decision has one owning module, and each name one provider.

Checked on the source, not at run time: no platetone module imports an
underscore name from another one (a private helper is read only where it
is defined), and the diagnostics do not depend on the eigensolver module
(the lattice gradient they read belongs to ``field_grid``).  The package
root, checked at run time, offers only the entry points; every other name
is imported from its defining module.
"""

import ast
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "platetone"
MODULES = sorted(PACKAGE.glob("*.py"))


def platetone_imports(path):
    """(module, name) for every import of a platetone module in the file;
    name is None for a plain ``import platetone.x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "platetone" + (f".{module}" if module else "")
            if module == "platetone" or module.startswith("platetone."):
                for alias in node.names:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("platetone."):
                    yield alias.name, None


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_private_name_crosses_modules(path):
    own = f"platetone.{path.stem}"
    crossing = [f"{module}.{name}" for module, name in platetone_imports(path)
                if name is not None and name.startswith("_") and module != own]
    assert crossing == []


def test_diagnostics_import_nothing_from_biharmonic():
    found = [(module, name) for module, name in platetone_imports(PACKAGE / "diagnostics.py")
             if module == "platetone.biharmonic"
             or (module == "platetone" and name == "biharmonic")]
    assert found == []


def test_package_root_exports_the_entry_points():
    import platetone
    public = {name for name, value in vars(platetone).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"RunConfig", "optimize"}
