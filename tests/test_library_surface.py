"""The library holds what its callers reach.

Every public top-level function or class in ``src/obpb`` must be reached in
one of four ways:

* another definition in ``src/obpb`` refers to it in code;
* the benchmark tracer, ``bench/tracing.py``, names it;
* the README's library quickstart calls it;
* it is the console entry point (``cli.main``, from ``pyproject.toml``).

A reference is a name, an attribute or an imported name, matched by its
last component; the tracer's dotted boundary strings count as well.  Forms
that only tests call (per-mode fields, the dense sub-array codebook, one
optimizer half-step) live in ``tests/oracles.py``, which nothing under
``src/`` or ``demos/`` imports.
"""

import ast
import re
import tomllib
from pathlib import Path

from test_readme import quickstart_code

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "obpb"


def _references(tree):
    """The identifiers a syntax tree refers to in code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _library():
    """The public top-level definitions as 'module.name', and every name
    some top-level statement refers to outside its own definition."""
    public, reached = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                public.append(f"{path.stem}.{own}")
            reached |= _references(node) - {own}
    return public, reached


def _tracer_names():
    """Every identifier in bench/tracing.py's code and strings."""
    source = (ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    strings = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return _references(tree) | set(re.findall(r"\w+", " ".join(strings)))


def _entry_points():
    """The console scripts' targets as 'module.name'."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return {target.removeprefix("obpb.").replace(":", ".")
            for target in scripts.values()}


def test_every_public_definition_is_reached():
    public, reached = _library()
    reached |= _tracer_names() | _references(ast.parse(quickstart_code()))
    entry = _entry_points()
    assert entry == {"cli.main"}
    unreached = [q for q in public
                 if q not in entry and q.split(".")[1] not in reached]
    assert not unreached, ("public definitions no caller reaches; move them "
                           f"to tests/oracles.py or delete them: {unreached}")


def test_library_and_demos_do_not_import_the_tests():
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("oracles", "tests",
                                                  "conftest"), (path, name)
