"""Structure guard: :class:`repro.core.memo.Memo` is the only cache in src/.

A hand-rolled LRU (``OrderedDict``) or a result hung on a function object
(``fn._repro_..._cache = ...``) outside ``core/memo.py`` is a second cache
layer with its own lock, counters and bounds; memoise through a ``Memo``
instead.
"""

import ast
import pathlib
import re

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
MEMO_MODULE = PACKAGE / "core" / "memo.py"
CACHE_ATTR = re.compile(r"_repro_\w*cache\w*|_repro_verify_result")


def _modules():
    return sorted(p for p in PACKAGE.rglob("*.py") if p != MEMO_MODULE)


def _findings(source, where):
    for node in ast.walk(ast.parse(source, where)):
        if isinstance(node, ast.Name) and node.id == "OrderedDict":
            yield f"{where}:{node.lineno}: OrderedDict"
        elif isinstance(node, ast.Attribute) and node.attr == "OrderedDict":
            yield f"{where}:{node.lineno}: OrderedDict"
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "OrderedDict" for alias in node.names):
                yield f"{where}:{node.lineno}: imports OrderedDict"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and CACHE_ATTR.fullmatch(target.attr)):
                    yield (f"{where}:{node.lineno}: function-attribute "
                           f"cache {target.attr}")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "setattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)
              and CACHE_ATTR.fullmatch(node.args[1].value)):
            yield (f"{where}:{node.lineno}: function-attribute cache "
                   f"{node.args[1].value}")


def test_scans_the_whole_package():
    names = {p.name for p in _modules()}
    assert {"compiler.py", "cache.py", "db.py", "regions.py",
            "verifier.py"} <= names


def test_memo_is_the_only_cache_layer():
    findings = [f for path in _modules()
                for f in _findings(path.read_text(encoding="utf-8"),
                                   str(path.relative_to(PACKAGE.parent)))]
    assert findings == []


def test_guard_catches_every_pattern():
    source = ("import collections\n"
              "from collections import OrderedDict\n"
              "LRU = collections.OrderedDict()\n"
              "def f(fn):\n"
              "    fn._repro_region_cache = {}\n"
              "    fn._repro_verify_result = 1\n"
              "    setattr(fn, '_repro_launch_cache', {})\n"
              "    fn._repro_uses_barrier = True\n")
    findings = list(_findings(source, "probe.py"))
    assert sorted(f.split(": ", 1)[0] for f in findings) == \
        ["probe.py:2", "probe.py:3", "probe.py:5", "probe.py:6", "probe.py:7"]
