"""Compare two artifact trees file by file.

Lists the files that only one tree has and the files whose bytes differ.
The one difference it ignores is the top-level ``"source"`` line of each
``manifest.json``, which names the scenario file the run read, so two runs
of one scenario from different paths compare equal.  Exits 0 when the
trees match, 1 when they differ and 2 when an argument is not a directory.

    python tools/tree_diff.py A B
"""

import argparse
import sys
from pathlib import Path

_SOURCE = b'  "source": '


def _files(root):
    return {path.relative_to(root).as_posix()
            for path in root.rglob("*") if path.is_file()}


def _content(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(_SOURCE))
    return data


def tree_diff(a, b):
    """(only in a, only in b, differing): sorted relative paths."""
    a, b = Path(a), Path(b)
    in_a, in_b = _files(a), _files(b)
    return (sorted(in_a - in_b), sorted(in_b - in_a),
            [rel for rel in sorted(in_a & in_b)
             if _content(a / rel) != _content(b / rel)])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tree_diff", description="Compare two artifact trees.")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not Path(root).is_dir():
            print(f"error: {root}: not a directory", file=sys.stderr)
            return 2
    only_a, only_b, differ = tree_diff(args.a, args.b)
    for root, rels in ((args.a, only_a), (args.b, only_b)):
        for rel in rels:
            print(f"only in {root}: {rel}")
    for rel in differ:
        print(f"differs: {rel}")
    if only_a or only_b or differ:
        return 1
    print(f"identical: {len(_files(Path(args.a)))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
