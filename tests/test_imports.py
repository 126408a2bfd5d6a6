"""Every module-level import in src/covquant is used in its module, and
every function, class and method it defines is referenced somewhere."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covquant"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source):
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [a.asname or a.name for a in node.names]
    # an attribute chain such as kernels.lp_add starts with a Name node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["os", "comb"]


def test_there_are_modules_to_check():
    assert {"cartan.py", "cli.py", "halfqg.py", "umod.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


def _names_read(node):
    """Every bare name and attribute name under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def read_counts(sources):
    """How often each name is read across the given source texts."""
    reads = Counter()
    for text in sources:
        reads.update(_names_read(ast.parse(text)))
    return reads


def dead_definitions(source, reads):
    """Non-dunder functions, classes and methods defined in source whose
    name is read (reads as from read_counts, source included) nowhere
    except inside a definition of that same name."""
    defs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, _DEFS)
            and not (n.name.startswith("__") and n.name.endswith("__"))]
    own = Counter()
    for d in defs:
        own[d.name] += sum(name == d.name for name in _names_read(d))
    return sorted({d.name for d in defs if reads[d.name] == own[d.name]})


def test_checker_flags_a_dead_definition():
    source = (
        "class Crystal:\n"
        "    @staticmethod\n"
        "    def _proportional_unit(v0, w0):\n"
        "        return Crystal._proportional_unit(w0, v0)\n"
        "\n"
        "    def generate(self):\n"
        "        return _match_unit(self)\n"
        "\n"
        "\n"
        "def _match_unit(x):\n"
        "    return x\n"
        "\n"
        "\n"
        "def _shift_string(x):\n"
        "    return x\n"
    )
    test = "from crystal import Crystal\nCrystal().generate()\n"
    assert dead_definitions(source, read_counts([source, test])) == [
        "_proportional_unit", "_shift_string"]
    assert dead_definitions(source, read_counts([source])) == [
        "Crystal", "_proportional_unit", "_shift_string", "generate"]


@pytest.fixture(scope="module")
def src_and_test_reads():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    return read_counts(p.read_text(encoding="utf-8") for p in paths)


@pytest.mark.parametrize("name", MODULES)
def test_no_dead_definitions(name, src_and_test_reads):
    source = (SRC / name).read_text(encoding="utf-8")
    assert dead_definitions(source, src_and_test_reads) == []


def test_cli_import_leaves_umod_and_crystal_unloaded():
    # each command imports the heavy modules it needs, so a cold start
    # of validate or canonical does not compile umod; canonical needs
    # neither the module build nor field elimination, and the datum hash
    # maps no OpenSSL (_hashlib)
    code = ("import os, sys, covquant.cli\n"
            "print(' '.join(sorted(sys.modules)))\n"
            "covquant.cli.main(['canonical', '--datum', 'osp14', "
            "'--height', '2', '--out', os.devnull])\n"
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    imported, ran = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout.splitlines()
    loaded = imported.split()
    assert "covquant.cli" in loaded
    assert "covquant.umod" not in loaded
    assert "covquant.crystal" not in loaded
    loaded = ran.split()
    assert "covquant.crystal" in loaded
    for name in ("covquant.umod", "covquant.linalg", "_hashlib"):
        assert name not in loaded
