"""Compare two artifact trees file by file.

Lists the files that only one tree has and the files whose bytes differ.
The one difference it ignores is the top-level ``"source"`` line of each
``manifest.json``, which names the scenario file the run read, so two runs
of one scenario from different paths compare equal.  Exits 0 when the
trees match, 1 when they differ and 2 when an argument is not a directory.

With ``--numeric TOL`` it reads the numbers of the files whose bytes
differ.  For each CSV column and each JSON key that differs it prints the
largest absolute and the largest relative difference and where each sits.
Then it prints one line per method and N_UE point (the files under
``<method>/n_ue_<k>/``, the point's ``summary.csv`` row and its manifest
entry), and one for the rest of the run: ``identical``, ``within TOL``
when every number is within TOL of the other tree's, absolutely or
relatively, or ``moved`` with its largest offender.  ``selection_chain``,
``sub_shape`` and ``m_opt``, every string, flag and JSON integer, the CSV
headers and row counts, the JSON keys and list lengths and the file lists
must match exactly.  It exits 0 when no point moved.

    python tools/tree_diff.py A B
    python tools/tree_diff.py --numeric 1e-9 A B
"""

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

_SOURCE = b'  "source": '
_EXACT = {"selection_chain", "sub_shape", "m_opt"}
_POINT = re.compile(r"([^/]+)/n_ue_(\d+)/")
RUN = ("run", None)


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


def _point(rel):
    """The (method, n_ue) point a file belongs to, or RUN."""
    match = _POINT.match(rel)
    return (match[1], int(match[2])) if match else RUN


class NumericDiff:
    """The differences of two trees' numbers, by point and by field.

    ``worst[(point, file, field)]`` maps 'abs', 'rel' and 'size' to the
    largest absolute difference, the largest relative difference and the
    largest of each number's smaller one (what TOL is held to), each as
    (value, place).  A value that must match exactly and does not counts
    as infinite in all three.  ``points`` lists every point either tree
    has, and RUN.
    """

    def __init__(self, a, b):
        a, b = Path(a), Path(b)
        only_a, only_b, differ = tree_diff(a, b)
        self.worst = {}
        self.points = {_point(rel) for rel in _files(a) | _files(b)} | {RUN}
        for root, rels in ((a, only_a), (b, only_b)):
            for rel in rels:
                self._mismatch(_point(rel), rel, "file", f"only in {root}")
        for rel in differ:
            if rel.endswith(".json"):
                self._json(rel, *(json.loads((root / rel).read_text())
                                  for root in (a, b)))
            else:
                self._csv(rel, *(list(csv.reader(io.StringIO(
                    (root / rel).read_text()))) for root in (a, b)))

    def _note(self, key, errs, place):
        """Keep the largest of each kind of error (a dict of arrays);
        place(i) names the i-th entry."""
        worst = self.worst.setdefault(key, dict.fromkeys(errs, (-1.0, None)))
        for kind, err in errs.items():
            i = int(np.argmax(err))
            if err[i] > worst[kind][0]:
                worst[kind] = (float(err[i]), place(i))

    def _mismatch(self, point, rel, field, place):
        inf = np.array([np.inf])
        self._note((point, rel, field), dict(abs=inf, rel=inf, size=inf),
                   lambda i: place)

    def _numbers(self, point, rel, field, xa, xb, places):
        """Note the differences of two equal-length lists of floats."""
        xa, xb = np.array(xa, dtype=float), np.array(xb, dtype=float)
        same = (xa == xb) | (np.isnan(xa) & np.isnan(xb))
        if same.all():
            return
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.where(same, 0.0, np.abs(xb - xa))
            rel_err = np.where(same, 0.0, err / np.abs(xa))
        err[np.isnan(err)] = np.inf
        rel_err[np.isnan(rel_err)] = np.inf
        self._note((point, rel, field),
                   dict(abs=err, rel=rel_err, size=np.minimum(err, rel_err)),
                   lambda i: f"{places[i]}: {float(xa[i])!r} -> "
                             f"{float(xb[i])!r}")

    def _csv(self, rel, ra, rb):
        if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
            self._mismatch(_point(rel), rel, "header or row count",
                           f"{len(ra)} rows -> {len(rb)} rows")
            return
        header, rows = ra[0], range(1, len(ra))
        points = {}
        for i in rows:
            if _point(rel) == RUN and {"method", "n_ue"} <= set(header):
                row = dict(zip(header, ra[i]))
                point = (row["method"], int(row["n_ue"]))
            else:
                point = _point(rel)
            points.setdefault(point, []).append(i)
        for col, field in enumerate(header):
            for point, idx in points.items():
                xa = [ra[i][col] for i in idx]
                xb = [rb[i][col] for i in idx]
                places = [f"line {i + 1}" for i in idx]
                if xa == xb:
                    continue
                if field not in _EXACT:
                    try:
                        self._numbers(point, rel, field,
                                      [float(x) for x in xa],
                                      [float(x) for x in xb], places)
                        continue
                    except ValueError:      # a column of text
                        pass
                k = next(k for k, (u, v) in enumerate(zip(xa, xb)) if u != v)
                self._mismatch(point, rel, field,
                               f"{places[k]}: {xa[k]!r} -> {xb[k]!r}")

    def _json(self, rel, ja, jb):
        if rel == "manifest.json" and isinstance(ja, dict) \
                and isinstance(jb, dict):
            ja, jb = dict(ja), dict(jb)
            ja.pop("source", None)
            jb.pop("source", None)
        self._walk(rel, _point(rel), ja, jb, "", None)

    def _walk(self, rel, point, x, y, place, field):
        if rel == "manifest.json" and place.startswith("points[") \
                and isinstance(x, dict) and "method" in x and "n_ue" in x:
            point = (x["method"], x["n_ue"])
        exact = field in _EXACT
        if isinstance(x, dict) and isinstance(y, dict) and not exact:
            if list(x) != list(y):
                self._mismatch(point, rel, field or "keys",
                               f"{place or '/'}: keys {sorted(x)} -> "
                               f"{sorted(y)}")
                return
            for k in x:
                # numbered keys (per_m's stream counts) stay in their field
                self._walk(rel, point, x[k], y[k],
                           f"{place}.{k}" if place else k,
                           field if k.isdigit() and field else k)
        elif isinstance(x, list) and isinstance(y, list) and not exact \
                and len(x) == len(y):
            for k, (u, v) in enumerate(zip(x, y)):
                self._walk(rel, point, u, v, f"{place}[{k}]", field)
        elif (type(x) is float and type(y) is float and not exact):
            self._numbers(point, rel, field, [x], [y], [place])
        elif x != y or type(x) is not type(y):
            self._mismatch(point, rel, field, f"{place}: {x!r} -> {y!r}")

    def fields(self):
        """Lines 'file: field: abs A at place, rel R at place', one per
        field that differs, the largest over every point."""
        merged = {}
        for (_, rel, field), worst in self.worst.items():
            m = merged.setdefault((rel, field), dict(worst))
            for kind in ("abs", "rel"):
                m[kind] = max(m[kind], worst[kind], key=lambda w: w[0])
        return [f"{rel}: {field}: " + (
            f"{m['abs'][1]}" if m["abs"][0] == np.inf else
            f"abs {m['abs'][0]:.3g} at {m['abs'][1]}; "
            f"rel {m['rel'][0]:.3g} at {m['rel'][1]}")
            for (rel, field), m in sorted(merged.items())]

    def point_lines(self, tol):
        """One line per point (RUN last) and a count of each verdict, and
        whether any point moved."""
        lines, moved = [], False
        for point in sorted(self.points - {RUN}) + [RUN]:
            name = "run" if point == RUN else f"{point[0]} n_ue={point[1]}"
            found = [(worst["size"], rel, field)
                     for (p, rel, field), worst in self.worst.items()
                     if p == point]
            if not found:
                lines.append(f"{name}: identical")
                continue
            (size, place), rel, field = max(found, key=lambda f: f[0][0])
            if size <= tol:
                lines.append(f"{name}: within {tol:g}")
                continue
            moved = True
            lines.append(f"{name}: moved: {rel}: {field}: {place}")
        verdicts = [line.split(": ")[1] for line in lines]
        lines.append(f"{len(lines)} points: " + ", ".join(
            f"{verdicts.count(v)} {v}"
            for v in ("identical", f"within {tol:g}", "moved")))
        return lines, moved


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tree_diff", description="Compare two artifact trees.")
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--numeric", type=float, default=None,
                        metavar="TOL", help="compare the differing files' "
                        "numbers; points within TOL do not count as moved")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not Path(root).is_dir():
            print(f"error: {root}: not a directory", file=sys.stderr)
            return 2
    if args.numeric is not None:
        diff = NumericDiff(args.a, args.b)
        lines, moved = diff.point_lines(args.numeric)
        for line in diff.fields() + lines:
            print(line)
        return 1 if moved else 0
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
