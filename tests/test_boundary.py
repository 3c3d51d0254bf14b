"""simlab and cli reach the other layers through their public names only."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ussim"


def private_reads(source: str) -> list[tuple[int, str]]:
    """Line and text of every x._name attribute access whose x is not self or cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_private_reads_finds_what_it_guards_against():
    source = "def f(self, v):\n    self._own()\n    v._flat_slots()\n    return v.held.slots\n"
    assert private_reads(source) == [(3, "v._flat_slots")]


@pytest.mark.parametrize("module", ["simlab.py", "cli.py"])
def test_no_private_attribute_of_another_object_is_read(module):
    assert private_reads((SRC / module).read_text()) == []


def test_the_package_exports_each_modules_names_and_nothing_else():
    import ussim
    from ussim import hashing, keystore, protocol, secparams, simlab

    modules = (hashing, secparams, keystore, protocol, simlab)
    assert ussim.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    assert len(set(ussim.__all__)) == len(ussim.__all__)  # no module's name shadows another's
    for module in modules:
        for name in module.__all__:
            assert getattr(ussim, name) is getattr(module, name)
