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


def test_the_key_pools_know_no_parameter_set_and_the_fill_time_sits_with_its_layout():
    import ussim
    from ussim import keystore, secparams

    for name in ("ProtocolParams", "check_users", "link_bits", "TimeToReady", "time_to_ready"):
        assert not hasattr(keystore, name), name
    assert ussim.time_to_ready is secparams.time_to_ready
    assert ussim.TimeToReady is secparams.TimeToReady
    imported = {
        alias.name
        for node in ast.parse((SRC / "keystore.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "secparams"
        for alias in node.names
    }
    assert imported == {"as_int", "as_real"}
    # secparams names NetworkConfig for type checkers only
    assert "keystore" not in vars(secparams) and "NetworkConfig" not in vars(secparams)
