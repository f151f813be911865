"""Scenario loading, execution and comparison.

A scenario is one YAML mapping that names the angular profile, the methods to
run (proposed and conventional), the N_UE sweep and the artifact options.  The
shipped ``paper_baseline`` file carries the reference values; anything omitted
falls back to the same defaults the library modules use.  One table
(`_SECTIONS`) holds every section key's parser, default and bound, and every
number must be finite.

Scenario points (method x N_UE) each write only into their own directory.
The runner follows the structure the sweep already has.  What points share is
built once up front, reduced to what the points read, and only read
afterwards.  The joint profile holds only its precision matrix and grids;
its theta nodes must resolve it (`THETA_REFINEMENT`), which the scenario
checks when it loads, from the theta rules alone.  From the same rules the
load computes the dipole link's SISO reference (``Scenario.siso_reference``)
and calibrates the transmit SNR on it (``Scenario.snr``), which must stay
inside the float range.  Before the runner computes anything it checks
that ``output_dir`` can be made.  The optimizer reads the profile
in closed-form azimuth harmonics.  The codebook element correlation takes
its one product with the dense joint matrix, the nodal BS marginal, from
row blocks of about 1.2 MB, so the 680 MB matrix is never formed, and
builds its steering matrix on the nodes that marginal keeps only.  The
full-array greedy chains (selection is scale-invariant, so one chain at
N_UE = 1 serves every N_UE) are all read from one Gram and keep only their
beams and Gram block.  A determinant chain can run out of admissible
beams before its stream count (the element correlation's numerical rank
can be lower); the run then stops with a ScenarioError that names the
method, its N_UE and the stream count, for the full-array chains before
any file is written and for a sub-array search at its point.  The OBPB
bundle is built before the codebook bundle, and the run peaks lower that
way round.  The OBPB surface projectors are built first (a stream count
above a surface's rank fails there, before the optimizer runs), one at a
time: each surface keeps only what projection reads (the plane's and the
hemisphere's mirror-fixed P as its signed mode maps, the 1/32-sphere's
dense J x J P), and its transfer matrix Z goes before the next surface's
is built.  Then the optimizer runs once per M from one `optimizer.Sweep`:
both ends' field tables, and the dipole-seeded BS correlation with its
top-m_max eigenbeams, whose first M start the run at M.  Each run is
reduced as it returns to every OBPB family's BS beams and M x M beam
correlation plus the UE beams and the history, and is let go before the
next starts.  Once
the joint profile is gone one steering matrix per BS artifact table is
built, and each end's field table on each artifact table's theta nodes.
Nothing an OBPB family reports depends on N_UE, so each family's point
(rank adaptation, report-M correlation, det_db and pattern tables) is
computed once and written under every ``n_ue_<k>`` directory.  A codebook
point is computed per N_UE: the full-array family scales the shared
chain's Gram block by N_UE, and the sub-array partition search runs at the
true scale.
The search reads each tiling shape's Gram in group-pair blocks (under 3 MB
alive at a time on the 8 x 8 array) and never forms the 1024 x 1024 Gram of
the zero-padded codebook; its chains equal that Gram's bit for bit.  A
method's tables are let go once its points are written.  The joint profile
is let go before the first point, once the manifest has taken its
normalization; no point reads it.

Numeric tables are rendered a whole column at a time, and the text of every
distinct column is kept for the rest of the run, as one string per chunk of
``_TEXT_ROWS`` rows.  That text is the run's only memo.  On the benchmark
workloads at seed 0 it serves 86% (``paper_baseline``), 23% (``obpb_wide``)
and 71% (``codebook_sweep``) of the rendered cells: the angle columns of
every table, an OBPB family's streams at each further N_UE, full-array
beams that recur across N_UE at a fixed ``report_m`` and sub-array winners
that recur.  A table is written one chunk of rows at a time, so beyond the
memo a write holds only one chunk's cells of each column and that chunk's
lines (about 2 MB for the largest ``codebook_sweep`` table, 66 columns x
7381 rows), and never the whole table's cells, lines or file string.

All artifacts are plain CSV/JSON, written with round-trip float formatting and
fixed key order and without timestamps, so a rerun of the same scenario on the
same build produces byte-identical files.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import yaml

from . import __version__, capacity, conventional, correlation, optimizer
from . import profiles, surfaces
from .modes import (DIPOLE_SMN, FieldTable, ModeSet, mode_count_for_radius,
                    truncation_order)
from .profiles import DEG, JointProfile, ProfileParams, make_grid

DB_FLOOR = 1e-20          # pattern power floor before 10*log10
# largest relative change of the profile's total power when both theta
# rules take twice as many nodes (`JointProfile.theta_refinement`): theta
# nodes that miss the profile read about 1.  The baseline profile reads
# 7e-15 on the default grids, 5.9e-3 on 24 x 12 theta nodes and 0.44 on the
# 12 x 8 of desk-size smoke scenarios; obpb_wide reads 3.5e-7
THETA_REFINEMENT = 0.5


class ScenarioError(ValueError):
    """Configuration problem, anchored to the file and key that caused it."""


# ---------------------------------------------------------------------------
# configuration tree
# ---------------------------------------------------------------------------

def _require_mapping(node, where):
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    return dict(node)


def _reject_unknown(node, where, allowed):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key '{unknown[0]}' "
            f"(allowed: {', '.join(sorted(allowed))})")


def _number(value, where, minimum=None):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number")
    # nan compares false, and an int past the float range would overflow
    if not abs(value) <= float(np.finfo(float).max):
        raise ScenarioError(f"{where}: must be finite")
    value = float(value)
    if minimum is not None and value <= minimum:
        raise ScenarioError(f"{where}: must be > {minimum}")
    return value


def _integer(value, where, minimum=1):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}: expected an integer")
    if value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}")
    return value


def _given(value, where, minimum):
    """The value as given: its consumer validates it."""
    return value


def _grid(pair, where, minimum):
    """An [n_theta, n_phi] quadrature grid, as a tuple."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ScenarioError(f"{where}: expected [n_theta, n_phi]")
    return tuple(_integer(v, f"{where}[{i}]", minimum)
                 for i, v in enumerate(pair))


# the library defaults that scenario keys fall back to
_OBPB, _ARRAY = optimizer.ObpbConfig(), conventional.ArrayConfig()
_PROFILE = profiles.baseline_params()

# every key of every section as (key, parser, default, minimum): a number
# must exceed its minimum, an integer (each of a grid's two) reach it.
# Profile values pass through to ProfileParams, which validates them
_SECTIONS = {
    "profile": (("mean_bs", _given, _PROFILE.mean_bs.tolist(), None),
                ("mean_ue", _given, _PROFILE.mean_ue.tolist(), None),
                ("sigma", _given, _PROFILE.sigma.tolist(), None),
                ("corr", _given, _PROFILE.corr.tolist(), None),
                ("polarization", _given, _PROFILE.polarization, None)),
    "quadrature": (("bs", _grid, list(profiles.BS_GRID), 2),
                   ("ue", _grid, list(profiles.UE_GRID), 2)),
    "antenna": (("bs_aperture_side", _number, 4.0, 0.0),
                ("ue_aperture_side", _number, 1.0, 0.0)),
    "obpb": (("epsilon", _number, _OBPB.epsilon, 0.0),
             ("max_iterations", _integer, _OBPB.max_iterations, 1),
             ("m_max", _integer, 12, 1)),
    "surfaces": (("density", _number, 4.0, 0.0),
                 ("rank_rtol", _number, surfaces.RANK_RTOL, 0.0)),
    "conventional": (("n_v", _integer, _ARRAY.n_v, 1),
                     ("n_h", _integer, _ARRAY.n_h, 1),
                     ("spacing", _number, _ARRAY.spacing, 0.0),
                     ("beam_interval", _integer, _ARRAY.beam_interval, 1)),
    "artifacts": (("cut_step_deg", _number, 1.0, 0.0),
                  ("grid_step_deg", _number, 3.0, 0.0)),
}

_METRICS = {"power": "power", "det": "determinant",
            "determinant": "determinant"}


def _section(tree, name, where):
    """One section's values by key, missing (or null) keys at their
    defaults."""
    where = f"{where}: {name}"
    node = _require_mapping(tree.get(name, {}), where)
    _reject_unknown(node, where, [row[0] for row in _SECTIONS[name]])
    return {key: parse(default if node.get(key) is None else node[key],
                       f"{where}: {key}", minimum)
            for key, parse, default, minimum in _SECTIONS[name]}


def parse_method(spec, where="methods"):
    """One method string -> descriptor dict with a filesystem-safe label.

    Accepted forms: ``obpb:<optimal|plane|one_32_sphere|hemisphere>``,
    ``full_array:<power|det>`` and ``sub_array[:<power|det>]``.  Labels are
    ``obpb_<surface>``, ``full_array_power``, ``full_array_det``,
    ``sub_array`` (the power rule) and ``sub_array_det``.
    """
    if not isinstance(spec, str):
        raise ScenarioError(f"{where}: method entries are strings")
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if kind == "obpb":
        surface = arg or "optimal"
        if surface != "optimal" and surface not in surfaces.SURFACES:
            raise ScenarioError(
                f"{where}: unknown surface '{surface}' (optimal, "
                + ", ".join(surfaces.SURFACES) + ")")
        return {"kind": "obpb", "surface": surface,
                "label": f"obpb_{surface}"}
    if kind in ("full_array", "sub_array"):
        metric = _METRICS.get(arg or "power")
        if metric is None:
            raise ScenarioError(f"{where}: {kind} metric is "
                                f"'power' or 'det', got '{arg}'")
        suffix = "det" if metric == "determinant" else "power"
        label = ("sub_array" if kind == "sub_array" and suffix == "power"
                 else f"{kind}_{suffix}")
        return {"kind": kind, "metric": metric, "label": label}
    raise ScenarioError(f"{where}: unknown method kind '{kind}' "
                        "(obpb, full_array, sub_array)")


class Scenario:
    """A validated scenario tree; every field resolved to its final value."""

    _TOP_KEYS = ("name", "output_dir", "methods", "n_ue", "snr_db_siso",
                 "report_m", *_SECTIONS)

    def __init__(self, tree, source="<scenario>"):
        where = source
        tree = _require_mapping(tree, where)
        _reject_unknown(tree, where, self._TOP_KEYS)
        self.source = source

        self.name = tree.get("name", Path(source).stem or "scenario")
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(f"{where}: name: expected a non-empty string")
        self.output_dir = tree.get("output_dir", self.name)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ScenarioError(f"{where}: output_dir: expected a path string")

        methods = tree.get("methods")
        if not isinstance(methods, list) or not methods:
            raise ScenarioError(f"{where}: methods: expected a non-empty list")
        self.methods = [parse_method(spec, f"{where}: methods[{i}]")
                        for i, spec in enumerate(methods)]
        labels = [m["label"] for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"{where}: methods: duplicate method entries")

        n_ue = tree.get("n_ue")
        if not isinstance(n_ue, list) or not n_ue:
            raise ScenarioError(f"{where}: n_ue: expected a non-empty list")
        self.n_ue = [_integer(v, f"{where}: n_ue[{i}]")
                     for i, v in enumerate(n_ue)]
        for i, v in enumerate(self.n_ue):
            if v in self.n_ue[:i]:
                raise ScenarioError(f"{where}: n_ue: duplicate entry {v}")

        snr = tree.get("snr_db_siso")
        self.snr_db_siso = _number(-12.0 if snr is None else snr,
                                   f"{where}: snr_db_siso")
        report_m = tree.get("report_m")
        self.report_m = (None if report_m is None else
                         _integer(report_m, f"{where}: report_m"))

        # every section's values by key; the manifest spreads the flat ones
        self.sections = {name: _section(tree, name, where)
                         for name in _SECTIONS}
        # a step that does not divide 180 deg writes rows past the pole
        for key, step in self.sections["artifacts"].items():
            if not (180.0 / step).is_integer():
                raise ScenarioError(f"{where}: artifacts: {key}: {step:g} "
                                    "does not divide 180")
        try:
            self.profile_params = ProfileParams(**self.sections["profile"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: profile: {exc}") from None
        self.quadrature = self.sections["quadrature"]
        ob = self.sections["obpb"]
        self.obpb_config = optimizer.ObpbConfig(ob["epsilon"],
                                                ob["max_iterations"])
        self.obpb_m_max = ob["m_max"]
        if self.needs_obpb():
            counts = {}
            for side, r0 in (("bs", self.bs_radius), ("ue", self.ue_radius)):
                counts[side] = mode_count_for_radius(r0)
                if counts[side] == 0:
                    raise ScenarioError(
                        f"{where}: antenna: {side}_aperture_side: too small "
                        "for one spherical mode (needs >= 0.2251 wavelengths)")
                self._check_quadrature(where, side, "its modes",
                                       truncation_order(r0))
            if self.obpb_m_max > min(counts.values()):
                raise ScenarioError(
                    f"{where}: obpb: m_max: {self.obpb_m_max} exceeds the "
                    f"mode count of the smaller end (J_bs = {counts['bs']}, "
                    f"J_ue = {counts['ue']})")

        self.surface_density = self.sections["surfaces"]["density"]
        self.surface_rtol = self.sections["surfaces"]["rank_rtol"]

        self.array_config = conventional.ArrayConfig(
            **self.sections["conventional"])
        if (any(m["kind"] == "sub_array" for m in self.methods)
                and not conventional.tiling_shapes(self.array_config)):
            raise ScenarioError(
                f"{where}: conventional: n_v/n_h: no sub-array shape tiles a "
                f"{self.array_config.n_v} x {self.array_config.n_h} array")
        if self.needs_conventional():
            # an element's phase exp(j 2 pi r^ . x_n) holds spherical
            # harmonics up to order 2 pi |x_n| only, so the element
            # correlation obeys the mode rule at the outermost element
            cfg = self.array_config
            r_max = np.linalg.norm(cfg.positions(), axis=1).max()
            self._check_quadrature(
                where, "bs", f"the {cfg.n_v} x {cfg.n_h} array",
                truncation_order(r_max) if r_max > 0 else 0)
        # the refinement and the SISO reference, which the SNR calibration
        # and the manifest read, depend on the theta rules alone, so the bs
        # and ue grids (in schema order) are built with two phi nodes
        profile = JointProfile(self.profile_params, *(
            make_grid(n, 2) for n, _ in self.quadrature.values()))
        change = profile.theta_refinement()
        if not change <= THETA_REFINEMENT:
            raise ScenarioError(
                f"{where}: profile: theta nodes too coarse for the spreads: "
                f"the total power moves by {change:.2g} of itself when the "
                f"theta nodes double (limit {THETA_REFINEMENT:g})")
        self.siso_reference = correlation.siso_reference(profile)
        try:
            self.snr = correlation.calibrated_snr(self.siso_reference,
                                                  self.snr_db_siso)
        except (OverflowError, ZeroDivisionError):
            self.snr = np.inf
        # the calibration left the float range
        if not 0.0 < self.snr < np.inf:
            raise ScenarioError(f"{where}: snr_db_siso: out of range")

    def _check_quadrature(self, where, side, what, n):
        """Gauss-Legendre in cos(theta) and the n_phi-point trapezoid
        integrate every product of two order-<= N harmonics exactly from
        N + 1 and 2N + 1 nodes on; coarser grids give wrong numbers."""
        n_theta, n_phi = self.quadrature[side]
        if n_theta < n + 1 or n_phi < 2 * n + 1:
            raise ScenarioError(
                f"{where}: quadrature: {side}: [{n_theta}, {n_phi}] is too "
                f"coarse for {what} (N = {n}): needs n_theta >= {n + 1} "
                f"and n_phi >= {2 * n + 1}")

    # -- derived geometry ---------------------------------------------------

    @property
    def bs_radius(self):
        """Enclosing-sphere radius of the BS aperture (half its diagonal)."""
        return self.sections["antenna"]["bs_aperture_side"] / np.sqrt(2.0)

    @property
    def ue_radius(self):
        return self.sections["antenna"]["ue_aperture_side"] / np.sqrt(2.0)

    def needs_obpb(self):
        return any(m["kind"] == "obpb" for m in self.methods)

    def needs_conventional(self):
        return any(m["kind"] != "obpb" for m in self.methods)

    def resolved_output_dir(self):
        """Output directory after the OBPB_OUTPUT_ROOT override.

        Absolute paths pass through; relative ones are rooted under the
        environment variable when it is set, under the working directory
        otherwise.
        """
        out = Path(self.output_dir)
        if out.is_absolute():
            return out
        root = os.environ.get("OBPB_OUTPUT_ROOT")
        return (Path(root) / out) if root else out


def load_scenario(path):
    """Parse and validate a scenario file; raise ScenarioError otherwise."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        problem = getattr(exc, "problem", None) or str(exc)
        raise ScenarioError(f"{where}: {problem}") from None
    return Scenario(tree, source=str(path))


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------

def _fmt(value):
    """Shortest round-trip decimal form of one scalar."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _open_text(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_text(path, text):
    """Write text as UTF-8 with newline endings, making its directories."""
    with _open_text(path) as fh:
        fh.write(text)


def render_csv(header, rows):
    """CSV text of a mixed-type table: strings verbatim, None as an empty
    cell, numbers by _fmt."""
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else "" if v is None
                          else _fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# rows per chunk of a column's text: `_ColumnText.write` splits one chunk
# of every column at a time, about 20 kB of cell strings per column
_TEXT_ROWS = 256


class _ColumnText:
    """Numeric CSV tables rendered column by column, in bulk.

    ``repr`` of the Python scalars that ``tolist`` yields is the form `_fmt`
    gives (str of an int, shortest round-trip repr of a float) without a
    per-cell type check.  Rendered columns are keyed by dtype, length and
    the SHA-256 digest of their bytes, so a column that recurs anywhere in
    the run (the angle columns of every table, an OBPB family's streams at
    every N_UE, a greedy chain's beams at every prefix that evaluates them
    to the same bits) is formatted once, and the memo keeps no copy of any
    column's values.
    Each is kept as a list of chunk strings, the cells of ``_TEXT_ROWS``
    rows joined by newlines.  A table is written one chunk index at a time,
    and only that chunk of each column is split into cells, which as
    separate strings take some four times the memory of their text.  So
    beyond the memo a write holds one chunk of cells per column, and never
    the table's every cell or line or its whole text.

    The memo lives for the whole run, though some columns are never read
    again.  At the end of ``codebook_sweep`` (seed 0) it holds 337 columns:
    15.7 MB of text and 11 kB of keys, where keys of the column bytes took
    6.9 MB more.  A fresh memo per method would hold at most 10.1 MB of
    text at a time, but renders again what methods share.  That run's RSS
    climbs only 0.6 MB after its first method (91.1 to 91.7 MB), which
    bounds what a memo per method could take off its peak.
    """

    def __init__(self):
        self._text = {}

    def column(self, values):
        """The chunk strings of one column, rendered on first use."""
        values = np.ascontiguousarray(values)
        key = (values.dtype.str, values.size,
               hashlib.sha256(values).digest())
        chunks = self._text.get(key)
        if chunks is None:
            chunks = self._text[key] = [
                "\n".join(map(repr, values[lo:lo + _TEXT_ROWS].tolist()))
                for lo in range(0, values.size, _TEXT_ROWS)]
        return chunks

    def write(self, path, header, columns):
        texts = [self.column(values) for values in columns]
        with _open_text(path) as fh:
            fh.write(",".join(header) + "\n")
            for chunk in zip(*texts):
                fh.write("\n".join(map(",".join, zip(
                    *[text.split("\n") for text in chunk]))))
                fh.write("\n")


def _write_json(path, obj):
    # numpy arrays and scalars go in as the plain values of their tolist()
    write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                default=lambda value: value.tolist()) + "\n")


# ---------------------------------------------------------------------------
# pattern evaluation
# ---------------------------------------------------------------------------

def _power_db(power):
    """10 log10 max(power, DB_FLOOR), in place when given a float array:
    both callers pass a fresh one."""
    power = np.asarray(power, dtype=float)
    np.log10(np.maximum(power, DB_FLOOR, out=power), out=power)
    power *= 10.0
    return power


class _ModeDirections:
    """A ModeSet's fields over one artifact table's list of directions.

    `FieldTable.beam_power` evaluates the product of the list's distinct
    theta and phi values, which is gathered back to the list: every artifact
    table is nearly such a product (a phi cut is 1 x n, a theta cut n x 2,
    the grid exactly one).  The 'full' `FieldTable` on the distinct theta
    values is built once and serves every point's beams.
    """

    def __init__(self, modeset, theta, phi):
        theta_nodes, self.it = np.unique(theta, return_inverse=True)
        self.phi_nodes, self.ip = np.unique(phi, return_inverse=True)
        self.table = FieldTable(modeset, theta_nodes, "full")

    def pattern_db(self, q):
        """Per-stream radiated power in dB over the list; both polarization
        components contribute."""
        power = self.table.beam_power(q, self.phi_nodes)
        return _power_db(power[:, self.it, self.ip])


# streams per product of `_element_pattern_db`; no value changes a bit
_STREAM_BLOCK = 8


def _element_pattern_db(weights, steering):
    """Per-stream array pattern in dB (element envelope times array factor)
    over the directions of a `conventional.steering_matrix`.

    The complex pattern is formed `_STREAM_BLOCK` streams at a time, so
    beside the float table only one block of it is alive.  A gemm's rows do
    not depend on how many rows it multiplies, so each block equals those
    rows of the one whole product; a 1-row product goes through gemv and
    rounds differently, so a last block of one stream joins the one before.
    """
    w = np.atleast_2d(np.asarray(weights).T)
    m = w.shape[0]
    edges = list(range(0, m, _STREAM_BLOCK)) + [m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    g = np.empty((m, steering.shape[1]))
    for lo, hi in zip(edges, edges[1:]):
        np.abs(w[lo:hi] @ steering, out=g[lo:hi])
    g *= g
    return _power_db(g)


def _cut_directions(step_deg):
    """(phi-plane, theta-plane) cut angles and their (theta, phi) nodes.

    The phi-plane cut walks phi through the horizon (theta = 90 deg); the
    theta-plane cut walks the full xz great circle, parametrized by a signed
    angle whose magnitude is theta, positive on the phi = 0 half and negative
    on the phi = 180 half.
    """
    angles = np.arange(-180.0, 180.0 + 0.5 * step_deg, step_deg)
    phi_cut = (angles, np.full(angles.size, 0.5 * np.pi), angles * DEG)
    theta_cut = (angles, np.abs(angles) * DEG,
                 np.where(angles >= 0.0, 0.0, np.pi))
    return phi_cut, theta_cut


def _grid_directions(step_deg):
    theta = np.arange(0.0, 180.0 + 0.5 * step_deg, step_deg)
    phi = np.arange(-180.0, 180.0 + 0.5 * step_deg, step_deg)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return tt.ravel(), pp.ravel(), tt.ravel() * DEG, pp.ravel() * DEG


class _ArtifactWriter:
    """Pattern and correlation tables of every point, over one set of
    artifact directions and one column-text store for the whole run.

    For the OBPB families (given their bundle) it holds each table's
    `_ModeDirections` per end, so each end's fields on a table's theta
    nodes are built once per run.
    """

    def __init__(self, scenario, obpb_bundle=None):
        steps = scenario.sections["artifacts"]
        phi_cut, theta_cut = _cut_directions(steps["cut_step_deg"])
        # tables are (file name, leading header, leading columns, theta, phi)
        self.bs_tables, self.ue_tables = [], []
        for stem, label, (angles, theta, phi) in (
                ("cut_phi_plane", "phi_deg", phi_cut),
                ("cut_theta_plane", "angle_deg", theta_cut)):
            self.bs_tables.append((f"{stem}.csv", [label], [angles], theta,
                                   phi))
            self.ue_tables.append((f"{stem}_ue.csv", [label], [angles], theta,
                                   phi))
        tdeg, pdeg, theta, phi = _grid_directions(steps["grid_step_deg"])
        self.bs_tables.append(("pattern_grid.csv", ["theta_deg", "phi_deg"],
                               [tdeg, pdeg], theta, phi))
        # the codebook methods' element patterns, one per BS table
        self.steering = ([conventional.steering_matrix(
            scenario.array_config, theta, phi)
            for *_, theta, phi in self.bs_tables]
            if scenario.needs_conventional() else [])
        self.bs_modes, self.ue_modes = [], []
        if obpb_bundle is not None:
            self.bs_modes = [_ModeDirections(obpb_bundle.modes_bs, theta, phi)
                             for *_, theta, phi in self.bs_tables]
            self.ue_modes = [_ModeDirections(obpb_bundle.modes_ue, theta, phi)
                             for *_, theta, phi in self.ue_tables]
        self.text = _ColumnText()

    def correlation(self, path, r_norm):
        m = r_norm.shape[0]
        i, j = np.divmod(np.arange(m * m), m)
        self.text.write(path, ["i", "j", "abs"],
                        [i + 1, j + 1, r_norm.ravel()])


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

class RunOutcome:
    """What `run_scenario` produced: exit code plus artifact locations."""

    def __init__(self, exit_code, output_dir, manifest_path, points):
        self.exit_code = exit_code
        self.output_dir = output_dir
        self.manifest_path = manifest_path
        self.points = points


class _ObpbBundle:
    """Each OBPB family's beams and beam correlations at every candidate M.

    The surface projectors are built first, so a stream count above a
    surface's radiatable rank fails before the optimizer runs.  Only one
    ProjectionOperator is alive at a time: each surface keeps what
    `surfaces.project` reads, ``op.projector`` (the signed mode maps of a
    mirror-fixed projector, the plane's and the hemisphere's, or a whole-Z
    surface's dense J x J P), and the operator (with its transfer matrix Z)
    is let go before the next surface's is built.  Each optimizer run is
    reduced as soon as it returns: every family keeps its BS beams
    (projected, for a surface) and their M x M correlation against the
    run's BS mode correlation, and the run's UE beams and history are
    kept.  The run, with its J x J BS mode correlation, is let go before
    the next one starts.  The projectors, the samplings and the sweep's
    J x J seed correlation are let go when construction ends; ``shapes``
    keeps each surface's sample count, rank and kind for the manifest.
    """

    def __init__(self, scenario, profile):
        self.modes_bs = ModeSet(enclosing_radius=scenario.bs_radius)
        self.modes_ue = ModeSet(enclosing_radius=scenario.ue_radius)
        m_max = scenario.obpb_m_max
        names = [mm["surface"] for mm in scenario.methods
                 if mm["kind"] == "obpb"]
        projectors, self.shapes = {}, {}
        for name in sorted(set(names) - {"optimal"}):
            samp = surfaces.sample_surface(
                surfaces.named_surface(name, scenario.bs_radius),
                scenario.surface_density)
            op = surfaces.build_z(self.modes_bs, samp,
                                  rtol=scenario.surface_rtol)
            if m_max > op.rank:
                raise ScenarioError(
                    f"{scenario.source}: obpb: m_max: {m_max} exceeds the "
                    f"radiatable rank {op.rank} of surface '{name}'")
            self.shapes[name] = {"n_points": samp.n_points, "rank": op.rank,
                                 "kind": samp.surface.kind}
            projectors[name] = op.projector
            # Z goes with its operator before the next surface's is built
            del op
        sweep = optimizer.Sweep(profile, self.modes_bs, self.modes_ue, m_max)
        # family -> M -> (BS beams, their beam correlation)
        self.families = {name: {} for name in names}
        self.q_ue, self.histories = {}, {}
        for m in range(1, m_max + 1):
            run = optimizer.run(scenario.obpb_config, profile, self.modes_bs,
                                self.modes_ue, m, sweep=sweep)
            for name, family in self.families.items():
                q = (run.q_bs if name == "optimal"
                     else surfaces.project(projectors[name], run.q_bs))
                family[m] = q, correlation.beam_correlation(q, run.r_bs)
            self.q_ue[m] = run.q_ue
            # text keys: the manifest sorts its keys, and these as text
            self.histories[str(m)] = {
                "objective_history": list(run.objective_history),
                "converged": bool(run.converged),
                "iterations": int(run.iterations)}
            # the run's J x J r_bs goes before the next run starts
            del run
        self.converged = all(h["converged"]
                             for h in self.histories.values())


class _ConventionalBundle:
    """Element correlation at N_UE = 1 plus the full-array greedy chains.

    Selection is independent of N_UE because the element correlation scales
    linearly with it, so the chains are built once at the deepest stream
    count the sweep can reach, every metric's from one Gram.
    """

    def __init__(self, scenario, profile):
        self.config = scenario.array_config
        try:
            self.r_unit = conventional.element_correlation(profile,
                                                           self.config)
        except ValueError as exc:
            # the nodal density overflows a float on these grids
            raise ScenarioError(f"{scenario.source}: profile: {exc}") \
                from None
        depth = min(self.config.n_elements, max(scenario.n_ue))
        metrics = sorted({mm["metric"] for mm in scenario.methods
                          if mm["kind"] == "full_array"})
        try:
            self.full = (conventional.full_array_selections(
                self.r_unit, self.config, depth, metrics) if metrics else {})
        except ValueError as exc:
            # only the determinant rule refuses: a^2 N beams >= depth
            raise ScenarioError(f"{scenario.source}: methods: full_array_det:"
                                f" N_UE = {max(scenario.n_ue)}: {exc}") \
                from None


class _Point:
    """One method's result at one N_UE, or at every N_UE for an OBPB family:
    its rank adaptation, report-M correlation and pattern tables."""

    def __init__(self, report, report_m, r_report, tables, dbs, extra):
        self.report = report
        self.report_m = report_m
        self.det_db = correlation.det_db(r_report)
        self.r_norm = correlation.normalize_correlation(r_report)
        self.tables = list(zip(tables, dbs))
        self.extra = extra

    def write(self, writer, out_dir, method, n_ue):
        """Write the point's files under n_ue_<n_ue>; return its record."""
        point_dir = out_dir / method["label"] / f"n_ue_{n_ue}"
        for (fname, head, lead, _, _), db in self.tables:
            header = head + [f"stream_{i + 1}_db" for i in range(db.shape[0])]
            writer.text.write(point_dir / fname, header, lead + list(db))
        writer.correlation(point_dir / "correlation.csv", self.r_norm)
        record = {"method": method["label"], "n_ue": int(n_ue),
                  "m_opt": int(self.report.m_opt),
                  "capacity_bits": float(self.report.total),
                  "det_db": self.det_db, "report_m": int(self.report_m),
                  "artifacts": str(point_dir.relative_to(out_dir)),
                  **self.extra}
        keep = ("method", "n_ue", "report_m", "det_db", "sub_shape")
        _write_json(point_dir / "capacity.json",
                    {"capacity": self.report.as_dict(),
                     **{k: v for k, v in record.items() if k in keep}})
        return record


def _obpb_point(scenario, method, bundle, writer):
    """The point of one OBPB family; nothing in it depends on N_UE."""
    family = bundle.families[method["surface"]]
    report = capacity.rank_adapt(lambda m: family[m][1], scenario.obpb_m_max,
                                 scenario.snr)
    report_m = min(scenario.report_m or report.m_opt, scenario.obpb_m_max)
    q_bs, r_report = family[report_m]
    dbs = ([d.pattern_db(q_bs) for d in writer.bs_modes]
           + [d.pattern_db(bundle.q_ue[report_m]) for d in writer.ue_modes])
    return _Point(report, report_m, r_report,
                  writer.bs_tables + writer.ue_tables, dbs,
                  {"converged": bundle.converged})


def _conventional_point(scenario, method, n_ue, bundle, writer):
    """The point of one codebook method at one N_UE."""
    extra = {"converged": None}
    if method["kind"] == "full_array":
        # chain built at N_UE = 1 (selection is scale-invariant); the N_UE
        # factor enters through the family only
        sel, scale = bundle.full[method["metric"]], float(n_ue)
        m_cap = min(bundle.config.n_elements, n_ue)
        report = capacity.rank_adapt(
            lambda m: scale * sel.beam_correlation(m), m_cap, scenario.snr)
    else:
        # the partition winner must be chosen at the true scale, so its
        # selection and report already carry the N_UE factor
        try:
            shape, sel, report = conventional.best_subarray_partition(
                float(n_ue) * bundle.r_unit, bundle.config, n_ue,
                scenario.snr, metric=method["metric"])
        except ValueError as exc:
            raise ScenarioError(f"{scenario.source}: methods: "
                                f"{method['label']}: N_UE = {n_ue}: {exc}") \
                from None
        scale, m_cap = 1.0, sel.m_max
        extra["sub_shape"] = list(shape)
        extra["sub_shape_label"] = f"{shape[0]}x{shape[1]}"
    extra["selection_chain"] = [int(i) for i in sel.chain[:m_cap]]
    report_m = min(scenario.report_m or report.m_opt, m_cap)
    beams = sel.beam_weights(report_m)
    return _Point(report, report_m, scale * sel.beam_correlation(report_m),
                  writer.bs_tables,
                  [_element_pattern_db(beams, s) for s in writer.steering],
                  extra)


# summary.csv's columns: header -> key of the point's manifest record
_SUMMARY = {"method": "method", "n_ue": "n_ue", "m_opt": "m_opt",
            "capacity_bits": "capacity_bits", "det_db": "det_db",
            "report_m": "report_m", "converged": "converged",
            "sub_shape": "sub_shape_label"}


def run_scenario(scenario, echo=None):
    """Execute every scenario point and write the artifact tree.

    Returns a RunOutcome whose exit code is 0 on success and 2 when any
    optimizer run failed to converge (artifacts are still written, flagged
    with converged=false).  Configuration problems raise ScenarioError
    before anything is written; an output directory that cannot be made
    raises before anything is computed.
    """
    say = echo if echo is not None else (lambda msg: None)

    out_dir = scenario.resolved_output_dir()
    # a file or a read-only directory on the output path fails here, before
    # anything is computed, and nothing is made
    at = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not (at.is_dir() and os.access(at, os.W_OK | os.X_OK)):
        raise ScenarioError(f"{scenario.source}: output_dir: {at} is not a "
                            "writable directory")
    profile = JointProfile(scenario.profile_params,
                           make_grid(*scenario.quadrature["bs"]),
                           make_grid(*scenario.quadrature["ue"]))
    say(f"profile on {scenario.quadrature['bs']} x "
        f"{scenario.quadrature['ue']} grids, snr = {scenario.snr:.6g}")

    obpb_bundle = None
    if scenario.needs_obpb():
        obpb_bundle = _ObpbBundle(scenario, profile)
        say(f"optimizer: {scenario.obpb_m_max} stream counts, converged="
            f"{obpb_bundle.converged}; surface ranks "
            + str({k: s["rank"] for k, s in obpb_bundle.shapes.items()}))
    # codebook last: its Hermitian part makes no second 16 MB Gram, and
    # paper_baseline peaks at 115.1-118.5 MB this way round against
    # 117.4-120.9 MB (7 of 12 runs above 119 MB) the other way (ru_maxrss,
    # 4 runs each way at each of seeds 0-2, 1-thread BLAS)
    conv_bundle = None
    if scenario.needs_conventional():
        conv_bundle = _ConventionalBundle(scenario, profile)
        say("conventional chains ready "
            f"(codebook {conv_bundle.config.n_beams} beams)")
    # the last read of the profile: no point needs it
    resolved = _resolved_parameters(scenario, profile, obpb_bundle,
                                    conv_bundle)
    del profile

    writer = _ArtifactWriter(scenario, obpb_bundle)
    points = []
    for method in scenario.methods:
        shared = (_obpb_point(scenario, method, obpb_bundle, writer)
                  if method["kind"] == "obpb" else None)
        for n_ue in scenario.n_ue:
            point = shared or _conventional_point(scenario, method, n_ue,
                                                  conv_bundle, writer)
            rec = point.write(writer, out_dir, method, n_ue)
            points.append(rec)
            say(f"{method['label']} N_UE={n_ue}: M_opt={rec['m_opt']} "
                f"C={rec['capacity_bits']:.3f} det_db={rec['det_db']:.2f}")

    write_text(out_dir / "summary.csv", render_csv(
        _SUMMARY, [[p.get(k) for k in _SUMMARY.values()] for p in points]))

    manifest = {
        "scenario_name": scenario.name,
        "source": str(scenario.source),
        "resolved": resolved,
        "points": points,
        "obpb_histories": obpb_bundle.histories if obpb_bundle else {},
        "converged": obpb_bundle.converged if obpb_bundle else True,
        "summary_csv": "summary.csv",
    }
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest_path, manifest)

    exit_code = 0 if manifest["converged"] else 2
    return RunOutcome(exit_code, out_dir, manifest_path, points)


def _resolved_parameters(scenario, profile, obpb_bundle, conv_bundle):
    """Every tunable the build exposes, at its value for this run.

    The antenna, obpb, conventional and artifacts entries spread the
    scenario's parsed sections (``Scenario.sections``) and add only what
    is derived from them; surfaces names its density
    ``density_per_wavelength`` and so lists its keys.
    """
    params = scenario.profile_params
    sections = scenario.sections
    resolved = {
        "package_version": __version__,
        "profile": {
            "mean_bs_deg": params.mean_bs, "mean_ue_deg": params.mean_ue,
            "sigma_deg": params.sigma, "corr": params.corr,
            "polarization": params.polarization,
            "quadrature_bs": list(scenario.quadrature["bs"]),
            "quadrature_ue": list(scenario.quadrature["ue"]),
            "normalization": profile.total_power,
        },
        "antenna": {
            **sections["antenna"],
            "bs_radius": scenario.bs_radius,
            "ue_radius": scenario.ue_radius,
        },
        "capacity": {
            "snr_db_siso": scenario.snr_db_siso,
            "snr": scenario.snr,
            "siso_reference": scenario.siso_reference,
            "eigenvalue_clamp_rel": capacity._CLAMP_REL,
            "tie_break_rel": capacity._TIE_REL,
        },
        "artifacts": {
            **sections["artifacts"],
            "report_m": scenario.report_m,
            "db_floor": DB_FLOOR,
        },
        "methods": [m["label"] for m in scenario.methods],
        "n_ue": scenario.n_ue,
    }
    if obpb_bundle is not None:
        resolved["modes"] = {
            "n_tr_bs": obpb_bundle.modes_bs.truncation_order,
            "n_tr_ue": obpb_bundle.modes_ue.truncation_order,
            "j_bs": obpb_bundle.modes_bs.mode_count,
            "j_ue": obpb_bundle.modes_ue.mode_count,
        }
        resolved["obpb"] = {
            **sections["obpb"],
            "seed_mode_smn": list(DIPOLE_SMN),
            "rank_adaptation": "re-run optimizer per candidate M",
        }
        resolved["surfaces"] = {
            "density_per_wavelength": scenario.surface_density,
            "rank_rtol": scenario.surface_rtol,
            "shapes": obpb_bundle.shapes,
        }
    if conv_bundle is not None:
        resolved["conventional"] = {
            **sections["conventional"],
            "codebook_beams": conv_bundle.config.n_beams,
            "tie_break_rel": conventional._TIE_REL,
            "subarray_shapes": [list(s)
                                for s in conventional.SUBARRAY_SHAPES],
            "stream_cap": "min(groups or elements, n_ue)",
        }
    return resolved


# ---------------------------------------------------------------------------
# comparison across runs
# ---------------------------------------------------------------------------

# each point key the table reads, with the types its JSON value may have:
# exact types, so a bool (an int subclass) is neither an int nor a number
_COMPARED = {"method": (str,), "n_ue": (int,), "m_opt": (int,),
             "capacity_bits": (int, float), "det_db": (int, float)}


def compare_manifests(paths, baseline=None):
    """Aligned comparison table across run manifests.

    Returns (header, rows).  Rows carry method, n_ue, m_opt, capacity,
    det_db, the capacity ratio against the baseline method at the same n_ue,
    and a warning column that flags manifests whose profile parameters
    disagree with the first manifest's.
    """
    if len(paths) < 2:
        raise ScenarioError("compare needs at least two manifest files")
    manifests = []
    for path in paths:
        try:
            man = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from None
        # what the table reads: the profile and each point's summary
        # keys, each of its type
        points = man.get("points") if isinstance(man, dict) else None
        if not (points and isinstance(points, list)
                and isinstance(man.get("resolved"), dict)
                and "profile" in man["resolved"]
                and all(isinstance(p, dict)
                        and all(type(p.get(k)) in t
                                for k, t in _COMPARED.items())
                        for p in points)):
            raise ScenarioError(f"{path}: not a run manifest")
        manifests.append((str(path), man))

    reference_profile = manifests[0][1]["resolved"]["profile"]
    if baseline is None:
        baseline = manifests[0][1]["points"][0]["method"]
    known = {p["method"] for _, man in manifests for p in man["points"]}
    if baseline not in known:
        raise ScenarioError(f"baseline method '{baseline}' not present in "
                            "any manifest (have: "
                            + ", ".join(sorted(known)) + ")")

    baseline_capacity = {}
    for _, man in manifests:
        for p in man["points"]:
            if p["method"] == baseline:
                baseline_capacity.setdefault(int(p["n_ue"]),
                                             float(p["capacity_bits"]))

    header = ["source", "method", "n_ue", "m_opt", "capacity_bits",
              "det_db", f"capacity_ratio_vs_{baseline}", "warning"]
    rows = []
    for path, man in manifests:
        warn = ("" if man["resolved"]["profile"] == reference_profile
                else "profile-mismatch")
        for p in man["points"]:
            base = baseline_capacity.get(int(p["n_ue"]))
            ratio = ("" if base is None or base == 0.0
                     else float(p["capacity_bits"]) / base)
            rows.append([Path(path).parent.name or str(path), p["method"],
                         int(p["n_ue"]), int(p["m_opt"]),
                         float(p["capacity_bits"]), float(p["det_db"]),
                         ratio, warn])
    return header, rows
