"""Scenario parsing, the runner's artifact tree, and the CLI verbs.

Everything here runs at desk scale: one-wavelength apertures shrink the mode
space to J = 48/16 and a coarse quadrature keeps a full run under a couple
of seconds, while exercising the identical code paths as the shipped
baseline (validation, optimizer, projection, conventional chains, artifact
writing, exit codes).
"""

import json
import shutil
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from obpb import cli, scenario

SMOKE_YAML = """\
name: smoke
output_dir: {out}
methods: [obpb:plane, obpb:optimal, full_array:det, sub_array]
n_ue: [2, 4]
report_m: 2
quadrature:
  bs: [48, 96]
  ue: [24, 48]
antenna:
  bs_aperture_side: 1.0
  ue_aperture_side: 0.5
obpb:
  epsilon: 0.01
  max_iterations: 60
  m_max: 2
conventional:
  n_v: 4
  n_h: 4
  beam_interval: 2
artifacts:
  cut_step_deg: 30.0
  grid_step_deg: 60.0
"""


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    cfg = root / "smoke.yaml"
    out = root / "out"
    cfg.write_text(SMOKE_YAML.format(out=out))
    scn = scenario.load_scenario(cfg)
    outcome = scenario.run_scenario(scn)
    return cfg, outcome


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_load_scenario_resolves_defaults(smoke_run):
    cfg, _ = smoke_run
    scn = scenario.load_scenario(cfg)
    assert scn.name == "smoke"
    assert [m["label"] for m in scn.methods] == [
        "obpb_plane", "obpb_optimal", "full_array_det", "sub_array"]
    assert scn.snr_db_siso == -12.0          # default kept
    assert scn.surface_density == 4.0
    assert scn.bs_radius == pytest.approx(1.0 / np.sqrt(2.0))


def test_scenario_error_messages_are_anchored(tmp_path):
    bad = tmp_path / "bad.yaml"

    bad.write_text("methods: [obpb:plane]\nn_ue: [4]\nturbo: 9\n")
    with pytest.raises(scenario.ScenarioError, match="unknown key 'turbo'"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:moebius_strip]\nn_ue: [4]\n")
    with pytest.raises(scenario.ScenarioError,
                       match=r"methods\[0\].*moebius_strip"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:plane]\nn_ue: [4]\nobpb: {epsilon: -1}\n")
    with pytest.raises(scenario.ScenarioError, match="epsilon"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:plane]\nn_ue: [0]\n")
    with pytest.raises(scenario.ScenarioError, match=r"n_ue\[0\]"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:plane, obpb:plane]\nn_ue: [4]\n")
    with pytest.raises(scenario.ScenarioError, match="duplicate"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:plane]\nn_ue: [4, 9, 4]\n")
    with pytest.raises(scenario.ScenarioError,
                       match=r"n_ue: duplicate entry 4$"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [obpb:plane]\nn_ue: [4]\nquadrature: {bs: [9]}\n")
    with pytest.raises(scenario.ScenarioError, match="n_theta, n_phi"):
        scenario.load_scenario(bad)

    # J = 48 / 16 at 1 / 0.5 wavelength apertures: m_max 16 fits, 17 does not
    small = ("n_ue: [4]\nantenna: {bs_aperture_side: 1.0, "
             "ue_aperture_side: 0.5}\nobpb: {m_max: %d}\n")
    bad.write_text("methods: [obpb:plane]\n" + small % 17)
    with pytest.raises(scenario.ScenarioError,
                       match=r"obpb: m_max: 17 .*J_bs = 48, J_ue = 16"):
        scenario.load_scenario(bad)
    bad.write_text("methods: [obpb:plane]\n" + small % 16)
    assert scenario.load_scenario(bad).obpb_m_max == 16
    # without an OBPB method m_max is never used
    bad.write_text("methods: [full_array:power]\n" + small % 20)
    assert scenario.load_scenario(bad).obpb_m_max == 20

    # N = floor(2 pi side / sqrt(2)) = 0 below 0.2251 wavelengths
    bad.write_text("methods: [obpb:optimal]\nn_ue: [4]\n"
                   "antenna: {ue_aperture_side: 0.2}\nobpb: {m_max: 1}\n")
    with pytest.raises(scenario.ScenarioError,
                       match="antenna: ue_aperture_side: too small"):
        scenario.load_scenario(bad)

    bad.write_text("methods: [sub_array]\nn_ue: [4]\n"
                   "conventional: {n_v: 3, n_h: 3}\n")
    with pytest.raises(scenario.ScenarioError,
                       match="conventional: n_v/n_h: .* 3 x 3 array"):
        scenario.load_scenario(bad)
    bad.write_text("methods: [full_array:det]\nn_ue: [4]\n"
                   "conventional: {n_v: 3, n_h: 3}\n")
    assert scenario.load_scenario(bad).array_config.n_elements == 9


REPO = Path(__file__).resolve().parent.parent


def _bench_workloads():
    """The benchmark's scenario generator, ``bench/workloads.py``."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_shipped_baseline_matches_benchmark_workload():
    # the acceptance gates read the shipped file and the benchmark builds
    # its own copy of the same tree; the two must not drift apart
    import yaml
    shipped = yaml.safe_load(
        (REPO / "scenarios" / "paper_baseline.yaml").read_text())
    assert shipped == _bench_workloads().scenario_tree("paper_baseline", 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_benchmark_workload_scenario_loads(tmp_path, seed):
    # the benchmark runs each workload from its generated file; no
    # load-time rule (the theta rule, the artifact steps, the SISO
    # calibration) may reject one
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        cfg = tmp_path / f"{name}.yaml"
        tree = workloads.write_scenario(name, seed, cfg)
        scn = scenario.load_scenario(cfg)
        assert scn.name == tree["name"] and 0.0 < scn.snr < np.inf


# every row of the scenario schema as (section, key, parser, default)
_ROWS = [(name, key, parse, default)
         for name, rows in scenario._SECTIONS.items()
         for key, parse, default, _ in rows]


@pytest.mark.parametrize("value", ["x", True, {"a": 1}],
                         ids=["string", "bool", "mapping"])
@pytest.mark.parametrize("section, key",
                         [row[:2] for row in _ROWS],
                         ids=[f"{row[0]}.{row[1]}" for row in _ROWS])
def test_every_schema_row_rejects_a_wrong_type(tmp_path, section, key,
                                               value):
    import yaml
    cfg = tmp_path / "typed.yaml"
    cfg.write_text(yaml.safe_dump({"methods": ["obpb:plane"], "n_ue": [4],
                                   section: {key: value}}))
    with pytest.raises(scenario.ScenarioError) as exc:
        scenario.load_scenario(cfg)
    # ProfileParams validates the profile as a whole
    anchor = "profile: " if section == "profile" else f"{section}: {key}"
    assert str(exc.value).startswith(f"{cfg}: {anchor}")


def _non_finite_cases():
    """(scenario keys, expected error after the file name) for every number
    row and every numeric profile row, at nan, inf and -inf."""
    # an integer past the float range overflowed float()
    cases = [pytest.param({"surfaces": {"density": 10 ** 400}},
                          "surfaces: density: must be finite", id="huge-int")]
    for bad in (float("nan"), float("inf"), float("-inf")):
        cases.append(pytest.param({"snr_db_siso": bad},
                                  "snr_db_siso: must be finite",
                                  id=f"snr_db_siso-{bad}"))
        for section, key, parse, default in _ROWS:
            if parse is scenario._number:
                cases.append(pytest.param(
                    {section: {key: bad}}, f"{section}: {key}: must be finite",
                    id=f"{section}.{key}-{bad}"))
            elif section == "profile" and not isinstance(default, str):
                value = np.array(default, dtype=float)
                value.flat[1] = bad
                cases.append(pytest.param(
                    {section: {key: value.tolist()}},
                    "profile: means, sigmas and correlations must be finite",
                    id=f"{section}.{key}-{bad}"))
    return cases


@pytest.mark.parametrize("keys, message", _non_finite_cases())
def test_non_finite_numbers_fail_validation(tmp_path, capsys, keys, message):
    # a nan SNR ran to exit 0 with nan capacities, an infinite density or a
    # nan cut step ended in a traceback, and nan means or spreads passed
    import yaml
    cfg = tmp_path / "finite.yaml"
    cfg.write_text(yaml.safe_dump({"methods": ["obpb:plane",
                                               "full_array:power"],
                                   "n_ue": [4], **keys}))
    assert cli.main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize("key", ["cut_step_deg", "grid_step_deg"])
def test_artifact_steps_must_divide_180(tmp_path, capsys, key):
    # a grid step of 7 deg wrote pattern rows at theta = 182 deg and a cut
    # step of 11 deg ended the theta-plane cut at 183 deg, past the pole,
    # where the OBPB and codebook families read different directions
    import yaml
    cfg = tmp_path / "steps.yaml"
    for step in (7, 11, 1, 3, 30, 45, 60):
        cfg.write_text(yaml.safe_dump({"methods": ["obpb:plane",
                                                   "full_array:power"],
                                       "n_ue": [4], "artifacts": {key: step}}))
        if step in (7, 11):
            assert cli.main(["validate", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}: artifacts: {key}: {step} does not divide "
                "180\n")
        else:
            assert scenario.load_scenario(cfg).sections["artifacts"][key] \
                == step


def _snr_out_of_range(tmp_path, capsys, snr_db):
    out = tmp_path / "out"
    cfg = tmp_path / "snr.yaml"
    cfg.write_text(SMOKE_YAML.format(out=out) + f"snr_db_siso: {snr_db}\n")
    for verb in ("validate", "run"):
        assert cli.main([verb, str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}: snr_db_siso: out of range\n"
    assert not out.exists()


def test_snr_that_underflows_is_a_scenario_error(tmp_path, capsys):
    # -4000 dB calibrates to a transmit snr of 0.0, which rank adaptation
    # rejects; the load reports it at the key (validate passed it), and the
    # run writes nothing
    _snr_out_of_range(tmp_path, capsys, -4000)


def test_snr_that_overflows_is_a_scenario_error(tmp_path, capsys):
    # +4000 dB overflows the calibration's float power; run ended in an
    # OverflowError traceback and validate passed it
    _snr_out_of_range(tmp_path, capsys, 4000)


@pytest.mark.parametrize("profile", [
    {}, {"sigma": [15.0, 45.0, 30.0, 50.0]},
    {"sigma": [4.03, 20.9, 11.05, 48.2], "mean_bs": [90.0, 3.1],
     "mean_ue": [90.0, -4.2]}])
def test_load_calibrates_the_snr_of_the_full_grids(profile):
    # the load calibrates on grids of two phi nodes; a profile on the
    # scenario's grids gives the same bits
    from obpb import correlation, profiles
    scn = scenario.Scenario({"methods": ["obpb:optimal"], "n_ue": [4],
                             "profile": profile})
    full = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    reference = correlation.siso_reference(full)
    assert scn.siso_reference == reference
    assert scn.snr == correlation.calibrated_snr(reference, scn.snr_db_siso)


def test_shipped_baseline_spells_every_schema_default():
    # the README's claim: the shipped file documents every key at its
    # library default, report_m apart
    import yaml
    path = REPO / "scenarios" / "paper_baseline.yaml"
    shipped = yaml.safe_load(path.read_text())
    for name, rows in scenario._SECTIONS.items():
        assert shipped[name] == {key: default
                                 for key, _, default, _ in rows}, name
    minimal = scenario.Scenario({key: shipped[key]
                                 for key in ("name", "methods", "n_ue")})
    assert minimal.snr_db_siso == shipped["snr_db_siso"]
    assert (minimal.report_m, shipped["report_m"]) == (None, 4)


def test_yaml_syntax_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("methods: [obpb:plane\nn_ue: [4]\n")
    with pytest.raises(scenario.ScenarioError, match=r"broken\.yaml:\d+"):
        scenario.load_scenario(bad)


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(scenario.ScenarioError):
        scenario.load_scenario(tmp_path / "nope.yaml")


def test_output_root_env_reroots_relative_dirs(tmp_path, monkeypatch):
    scn = scenario.Scenario({"methods": ["sub_array"], "n_ue": [1],
                             "output_dir": "runs/here"})
    monkeypatch.setenv("OBPB_OUTPUT_ROOT", str(tmp_path))
    assert scn.resolved_output_dir() == tmp_path / "runs" / "here"
    monkeypatch.delenv("OBPB_OUTPUT_ROOT")
    assert scn.resolved_output_dir() == Path("runs/here")
    # absolute paths are never rerooted
    scn.output_dir = str(tmp_path / "abs")
    monkeypatch.setenv("OBPB_OUTPUT_ROOT", "/elsewhere")
    assert scn.resolved_output_dir() == tmp_path / "abs"


# ---------------------------------------------------------------------------
# runner artifacts
# ---------------------------------------------------------------------------

def test_run_writes_the_artifact_tree(smoke_run):
    _, outcome = smoke_run
    assert outcome.exit_code == 0
    out = outcome.output_dir
    assert (out / "summary.csv").is_file()
    assert outcome.manifest_path == out / "manifest.json"

    for label in ("obpb_plane", "obpb_optimal", "full_array_det",
                  "sub_array"):
        for n in (2, 4):
            point = out / label / f"n_ue_{n}"
            for fname in ("cut_phi_plane.csv", "cut_theta_plane.csv",
                          "pattern_grid.csv", "correlation.csv",
                          "capacity.json"):
                assert (point / fname).is_file(), (label, n, fname)
            ue_cut = point / "cut_phi_plane_ue.csv"
            assert ue_cut.is_file() == label.startswith("obpb")

    # 4 methods x 2 sweep points
    assert len(outcome.points) == 8
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == ("method,n_ue,m_opt,capacity_bits,det_db,report_m,"
                          "converged,sub_shape")
    assert len(summary) == 9


def test_manifest_resolves_every_knob(smoke_run):
    _, outcome = smoke_run
    man = json.loads(outcome.manifest_path.read_text())
    res = man["resolved"]
    assert res["antenna"]["bs_aperture_side"] == 1.0
    assert res["modes"]["j_bs"] == 48 and res["modes"]["j_ue"] == 16
    assert res["obpb"]["m_max"] == 2
    assert res["conventional"]["n_v"] == 4
    assert res["capacity"]["snr"] > 0
    assert "plane" in res["surfaces"]["shapes"]
    assert man["scenario_name"] == "smoke"
    assert set(man["obpb_histories"]) == {"1", "2"}
    assert len(man["points"]) == 8


def test_correlation_artifact_is_normalized(smoke_run):
    import csv
    _, outcome = smoke_run
    path = outcome.output_dir / "obpb_optimal" / "n_ue_2" / "correlation.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["i", "j", "abs"]
    diag = [float(r["abs"]) for r in rows if r["i"] == r["j"]]
    offd = [float(r["abs"]) for r in rows if r["i"] != r["j"]]
    assert diag and all(abs(v - 1.0) < 1e-12 for v in diag)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in offd)
    # the unconstrained eigenbeams are orthogonal by construction
    assert max(offd) < 1e-6


def test_pattern_cuts_have_expected_grid(smoke_run):
    _, outcome = smoke_run
    path = outcome.output_dir / "obpb_plane" / "n_ue_2" / "cut_phi_plane.csv"
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "phi_deg"
    assert header[1:] == ["stream_1_db", "stream_2_db"]
    angles = [float(l.split(",")[0]) for l in lines[1:]]
    assert angles[0] == -180.0 and angles[-1] == 180.0
    assert len(angles) == 13        # 30-degree steps


def test_capacity_json_is_self_describing(smoke_run):
    _, outcome = smoke_run
    payload = json.loads((outcome.output_dir / "sub_array" / "n_ue_4"
                          / "capacity.json").read_text())
    assert payload["method"] == "sub_array"
    assert payload["n_ue"] == 4
    assert payload["report_m"] <= 2
    assert "sub_shape" in payload
    cap = payload["capacity"]
    assert cap["total"] == pytest.approx(
        sum(c for _, c in cap["per_stream"]))


def test_bulk_columns_render_like_fmt(tmp_path):
    # the numeric tables skip _fmt's per-cell dispatch; their text must be
    # the same on the values that stress float formatting (signed zero, the
    # dB floor, the smallest subnormal, exponent forms) and on integers
    floats = np.array([-0.0, -180.0, 1e16, 1e-5, scenario._power_db(0.0),
                       5e-324, 0.1 + 0.2, 90.0])
    ints = np.arange(-1, floats.size - 1)
    text = scenario._ColumnText()
    cells = lambda values: "\n".join(text.column(values)).split("\n")
    assert cells(floats) == [scenario._fmt(v) for v in floats]
    assert cells(ints) == [scenario._fmt(v) for v in ints]
    assert scenario._power_db(0.0) == -200.0
    path = tmp_path / "table.csv"
    text.write(path, ["i", "x"], [ints, floats])
    assert path.read_text() == scenario.render_csv(
        ["i", "x"], [[i, x] for i, x in zip(ints, floats)])
    # equal bytes under another dtype are another column
    assert text.column(floats.view(np.int64)) != text.column(floats)


def test_memo_keys_hold_no_column_bytes():
    # a column is keyed by its dtype, length and SHA-256 digest: a few dozen
    # bytes for 10 values as for 100000, so the memo holds no column's values
    x = np.random.default_rng(2).standard_normal(100_000)
    text = scenario._ColumnText()
    text.column(x[:10])
    text.column(x)
    sizes = [sum(sys.getsizeof(part) for part in key) for key in text._text]
    assert len(sizes) == 2 and sizes[0] == sizes[1] < 512
    # the same bytes under another dtype, or another dtype and length, are
    # other columns, each rendered from its own values
    x = x[:1000]
    text = scenario._ColumnText()
    views = (x, x.view(np.int64), x.view(np.float32), x.view(np.int16))
    for values in views * 2:
        cells = "\n".join(text.column(values)).split("\n")
        assert cells == [scenario._fmt(v) for v in values], values.dtype
    assert len(text._text) == len(views)


@pytest.mark.parametrize("n_rows", [
    0, 1, scenario._TEXT_ROWS - 1, scenario._TEXT_ROWS,
    scenario._TEXT_ROWS + 1, 2 * scenario._TEXT_ROWS + 1])
def test_chunked_tables_render_like_render_csv(tmp_path, n_rows):
    # a table is written one chunk of rows at a time; its text must not
    # depend on where the chunks end, also for a column whose chunks the
    # memo kept from an earlier table
    rng = np.random.default_rng(n_rows)
    ints = np.arange(n_rows)
    shared = 10.0 * np.log10(rng.random(n_rows))
    other = rng.standard_normal(n_rows) * 1e-7
    text = scenario._ColumnText()
    for name, header, columns in (
            ("first.csv", ["i", "shared", "x"], [ints, shared, other]),
            ("second.csv", ["shared", "i"], [shared, ints])):
        path = tmp_path / name
        text.write(path, header, columns)
        assert path.read_text() == scenario.render_csv(
            header, list(zip(*columns))), name


def test_chunked_table_allocation(tmp_path):
    # the largest codebook_sweep table (theta, phi and 64 streams over the
    # 3 deg grid): beyond the memo text it keeps, writing it allocates only
    # one chunk's cells per column, where whole-table cell lists, lines
    # and file text took 44 MB
    tdeg, pdeg, _, _ = scenario._grid_directions(3.0)
    streams = 10.0 * np.log10(np.random.default_rng(0).random((64,
                                                               tdeg.size)))
    columns = [tdeg, pdeg, *streams]
    header = ["theta_deg", "phi_deg"] + [f"stream_{i + 1}_db"
                                         for i in range(64)]
    assert tdeg.size == 7381
    text = scenario._ColumnText()
    tracemalloc.start()
    try:
        text.write(tmp_path / "pattern_grid.csv", header, columns)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 10 * 2 ** 20


@pytest.mark.parametrize("table", ["cut_phi_plane", "cut_theta_plane",
                                   "pattern_grid"])
def test_element_pattern_blocks_are_the_one_product(table):
    # the pattern is formed a few streams at a time; every stream count
    # (every remainder, 1 included) must give the one whole product's
    # bytes on the 3 deg tables: a 1-row block would round differently
    from obpb import conventional
    config = conventional.ArrayConfig()
    phi_cut, theta_cut = scenario._cut_directions(3.0)
    _, _, grid_th, grid_ph = scenario._grid_directions(3.0)
    theta, phi = {"cut_phi_plane": phi_cut[1:], "cut_theta_plane":
                  theta_cut[1:], "pattern_grid": (grid_th, grid_ph)}[table]
    steering = conventional.steering_matrix(config, theta, phi)
    codebook = conventional.dft_codebook(config)
    rng = np.random.default_rng(5)
    # a chain's weights: leading columns of a wider array, as selections
    # hand them out
    weights = codebook[:, rng.permutation(codebook.shape[1])[:64]]
    for m in range(1, 65):
        beams = weights[:, :m]
        whole = np.abs(beams.T @ steering)
        whole *= whole
        assert (scenario._element_pattern_db(beams, steering).tobytes()
                == scenario._power_db(whole).tobytes()), m


def test_element_pattern_allocation():
    # 64 codebook beams over the 3 deg grid: one float table (3.6 MiB) and
    # one 8-stream block of the complex pattern (0.9 MiB) at a time, 4.5 MiB
    # (the whole complex pattern would take 7.2 MiB more)
    from obpb import conventional
    config = conventional.ArrayConfig()
    _, _, theta, phi = scenario._grid_directions(3.0)
    steering = conventional.steering_matrix(config, theta, phi)
    beams = conventional.dft_codebook(config)[:, :64]
    tracemalloc.start()
    try:
        db = scenario._element_pattern_db(beams, steering)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert db.shape == (64, 7381)
    # the reading plus half a block
    assert peak <= 5 * 2 ** 20


def test_obpb_tables_are_shared_across_n_ue(smoke_run):
    # nothing an OBPB family reports depends on N_UE, so every table but
    # capacity.json (which names its N_UE) is the same file at each point
    _, outcome = smoke_run
    for label in ("obpb_plane", "obpb_optimal"):
        first = outcome.output_dir / label / "n_ue_2"
        for fname in ("cut_phi_plane.csv", "cut_theta_plane.csv",
                      "pattern_grid.csv", "cut_phi_plane_ue.csv",
                      "cut_theta_plane_ue.csv", "correlation.csv"):
            assert ((outcome.output_dir / label / "n_ue_4" / fname)
                    .read_bytes() == (first / fname).read_bytes()), \
                (label, fname)


def test_obpb_rank_adaptation_runs_once_per_family(tmp_path, monkeypatch):
    # an OBPB family's point does not depend on N_UE, so the runner
    # rank-adapts each family once and writes the result at every N_UE
    import yaml
    from obpb import capacity
    calls = []
    rank_adapt = capacity.rank_adapt
    monkeypatch.setattr(capacity, "rank_adapt",
                        lambda *args: calls.append(args) or rank_adapt(*args))
    tree = yaml.safe_load(SMOKE_YAML.format(out=tmp_path / "out"))
    tree.update(methods=["obpb:plane", "obpb:optimal"], n_ue=[2, 4, 8])
    outcome = scenario.run_scenario(scenario.Scenario(tree))
    assert len(outcome.points) == 6
    assert len(calls) == 2


def test_obpb_bundle_keeps_only_what_points_read(tmp_path, reachable):
    # after construction the bundle holds beams and M x M correlations, no
    # J x J mode correlation and no projector, and its correlations are
    # those of independent optimizer runs, started from the same seed
    # eigenbeams, and projections bit for bit
    import yaml
    from obpb import correlation, optimizer, profiles, surfaces
    tree = yaml.safe_load(SMOKE_YAML.format(out=tmp_path / "out"))
    scn = scenario.Scenario(tree)
    profile = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    bundle = scenario._ObpbBundle(scn, profile)
    j_bs = bundle.modes_bs.mode_count
    held = reachable(bundle)
    assert not [o for o in held if isinstance(
        o, (surfaces.ProjectionOperator, surfaces.SurfaceSampling,
            optimizer.ObpbResult))]
    arrays = [o for o in held if isinstance(o, np.ndarray)]
    assert arrays and all(a.shape != (j_bs, j_bs) for a in arrays)
    assert set(bundle.families) == {"plane", "optimal"}

    sweep = optimizer.Sweep(profile, bundle.modes_bs, bundle.modes_ue,
                            scn.obpb_m_max)
    op = surfaces.build_z(bundle.modes_bs, surfaces.sample_surface(
        surfaces.named_surface("plane", scn.bs_radius), scn.surface_density),
        rtol=scn.surface_rtol)
    assert bundle.shapes["plane"]["rank"] == op.rank
    for m in range(1, scn.obpb_m_max + 1):
        run = optimizer.run(scn.obpb_config, profile, bundle.modes_bs,
                            bundle.modes_ue, m, sweep=sweep)
        q_plane = surfaces.project(op, run.q_bs)
        for name, q in (("optimal", run.q_bs), ("plane", q_plane)):
            kept_q, kept_r = bundle.families[name][m]
            assert np.array_equal(kept_q, q), (name, m)
            assert np.array_equal(
                kept_r, correlation.beam_correlation(q, run.r_bs)), (name, m)
        assert np.array_equal(bundle.q_ue[m], run.q_ue)
        assert bundle.histories[str(m)]["objective_history"] == \
            run.objective_history


def test_obpb_run_builds_each_table_and_the_seed_eigenbeams_once(
        tmp_path, monkeypatch):
    # far_field_matrix runs once per (ModeSet, theta-node set): the two
    # quadrature grids, under each end's mode set and under the N = 1 set
    # of the SISO reference's dipole, and each artifact table's theta nodes
    # per end (the surfaces' build_z takes regular waves, not far fields),
    # and the seed correlation's eigenproblem is solved once, at m_max, for
    # every M
    import yaml
    from obpb import modes, optimizer, profiles
    tables = []
    far_field_matrix = modes.far_field_matrix

    def spy_tables(modeset, theta, phi):
        tables.append((modeset.truncation_order,
                       np.asarray(theta, dtype=float).tobytes()))
        return far_field_matrix(modeset, theta, phi)

    solves = []
    dominant_beams = optimizer.dominant_beams

    def spy_solves(r_sph, m):
        solves.append((r_sph.copy(), m))
        return dominant_beams(r_sph, m)

    monkeypatch.setattr(modes, "far_field_matrix", spy_tables)
    monkeypatch.setattr(optimizer, "dominant_beams", spy_solves)
    tree = yaml.safe_load(SMOKE_YAML.format(out=tmp_path / "out"))
    scn = scenario.Scenario(tree)
    scenario.run_scenario(scn)
    monkeypatch.undo()
    # 2 quadrature grids x (end + dipole) + (3 BS + 2 UE) artifact tables
    assert len(tables) == len(set(tables)) == 9
    assert {theta for order, theta in tables if order == 1} == {
        profiles.make_grid(*scn.quadrature[end]).theta_nodes.tobytes()
        for end in ("bs", "ue")}

    profile = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    modes_bs = modes.ModeSet(enclosing_radius=scn.bs_radius)
    modes_ue = modes.ModeSet(enclosing_radius=scn.ue_radius)
    seed = optimizer.Sweep(profile, modes_bs, modes_ue, 1).r_seed
    assert scn.obpb_m_max > 1
    assert [m for r, m in solves if np.array_equal(r, seed)] == \
        [scn.obpb_m_max]


def test_obpb_bundle_holds_one_projection_operator_at_a_time(tmp_path,
                                                             monkeypatch):
    # the bundle keeps each surface's projector matrix only, so an operator
    # and its transfer matrix Z are gone before the next surface's is built
    import yaml
    from obpb import profiles, surfaces
    tree = yaml.safe_load(SMOKE_YAML.format(out=tmp_path / "out"))
    tree["methods"] = ["obpb:plane", "obpb:one_32_sphere", "obpb:hemisphere"]
    scn = scenario.Scenario(tree)
    profile = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    built, alive_at_build = [], []
    build_z = surfaces.build_z

    def tracked(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in built))
        op = build_z(*args, **kwargs)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(surfaces, "build_z", tracked)
    bundle = scenario._ObpbBundle(scn, profile)
    assert alive_at_build == [0, 0, 0]
    assert all(ref() is None for ref in built)
    assert set(bundle.shapes) == {"plane", "one_32_sphere", "hemisphere"}


def test_obpb_bundle_lets_each_optimizer_run_go_before_the_next(
        tmp_path, monkeypatch):
    # each run's J x J BS mode correlation goes with the run, before the
    # next stream count's run starts
    import yaml
    from obpb import optimizer, profiles
    tree = yaml.safe_load(SMOKE_YAML.format(out=tmp_path / "out"))
    tree["obpb"]["m_max"] = 3
    scn = scenario.Scenario(tree)
    profile = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    done, alive_at_start = [], []
    run = optimizer.run

    def tracked(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in done))
        result = run(*args, **kwargs)
        done.append(weakref.ref(result))
        return result

    monkeypatch.setattr(optimizer, "run", tracked)
    bundle = scenario._ObpbBundle(scn, profile)
    assert alive_at_start == [0, 0, 0]
    assert all(ref() is None for ref in done)
    assert sorted(bundle.q_ue) == [1, 2, 3]


def test_conventional_bundle_builds_one_gram_for_both_metrics(monkeypatch):
    # full_array:power and full_array:det select from the same codebook and
    # element correlation: one Gram serves both chains, and each chain is
    # the one a separate selection gives, bit for bit
    import yaml
    from obpb import conventional, profiles
    tree = yaml.safe_load(SMOKE_YAML.format(out="unused"))
    tree["methods"] = ["full_array:power", "full_array:det"]
    scn = scenario.Scenario(tree)
    profile = profiles.JointProfile(
        scn.profile_params, profiles.make_grid(*scn.quadrature["bs"]),
        profiles.make_grid(*scn.quadrature["ue"]))
    grams = []
    real_gram = conventional.candidate_gram

    def counting_gram(*args):
        grams.append(real_gram(*args))
        return grams[-1]

    monkeypatch.setattr(conventional, "candidate_gram", counting_gram)
    bundle = scenario._ConventionalBundle(scn, profile)
    assert len(grams) == 1
    monkeypatch.undo()
    depth = min(scn.array_config.n_elements, max(scn.n_ue))
    assert set(bundle.full) == {"power", "determinant"}
    for metric, sel in bundle.full.items():
        alone = conventional.full_array_selections(
            bundle.r_unit, scn.array_config, depth, (metric,))[metric]
        assert sel.chain == alone.chain
        assert np.array_equal(sel.beam_weights(depth),
                              alone.beam_weights(depth))
        assert np.array_equal(sel.beam_correlation(depth),
                              alone.beam_correlation(depth))


def test_m_max_above_surface_rank_fails_before_any_file(tmp_path, capsys,
                                                        monkeypatch):
    # the 1-wavelength plane radiates 24 of the 48 BS modes; 30 streams pass
    # validation (the mode counts allow them) but must stop the run at the
    # projector, before the optimizer runs and before anything is written
    from obpb import optimizer
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *a, **k: runs.append(a))
    cfg = tmp_path / "deep.yaml"
    out = tmp_path / "out"
    cfg.write_text(
        f"output_dir: {out}\nmethods: [obpb:optimal, obpb:plane]\n"
        "n_ue: [4]\nreport_m: 30\n"
        "quadrature: {bs: [24, 48], ue: [24, 48]}\n"
        "antenna: {bs_aperture_side: 1.0, ue_aperture_side: 1.0}\n"
        "obpb: {m_max: 30}\n")
    assert cli.main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: obpb: m_max: 30 exceeds the "
                          "radiatable rank 24 of surface 'plane'")
    assert not out.exists() and not runs


def test_rank_exhausted_det_chain_fails_before_any_file(tmp_path, capsys):
    # on the 8 x 2 array at quarter-wavelength spacing this profile's
    # element correlation has fewer than 16 numerically independent
    # directions, so the 16-beam full-array determinant chain runs out of
    # admissible beams.  Validation cannot see it; the run stops at the
    # chain, before anything is written
    cfg = tmp_path / "rank.yaml"
    out = tmp_path / "out"
    cfg.write_text(
        f"output_dir: {out}\nmethods: [full_array:det]\nn_ue: [16]\n"
        "conventional: {n_v: 8, n_h: 2, spacing: 0.25, beam_interval: 2}\n"
        "quadrature: {bs: [32, 64], ue: [12, 24]}\n"
        "profile: {sigma: [3, 60, 5, 70], mean_bs: [10, -120], "
        "mean_ue: [20, 0]}\n")
    assert cli.main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: methods: full_array_det: "
                          "N_UE = 16: determinant metric exhausted "
                          "admissible beams at "), err
    assert err.endswith(" of 16 streams\n"), err
    assert not out.exists()


def test_rank_exhausted_sub_array_search_fails_at_its_point(
        tmp_path, capsys, monkeypatch):
    # a sub-array search runs per N_UE, so a determinant chain that runs out
    # at N_UE = 4 stops the run there, the N_UE = 2 point already written
    from obpb import conventional
    search = conventional.best_subarray_partition
    message = "determinant metric exhausted admissible beams at 3 of 4 streams"

    def exhausted_at_4(r_elem, config, n_ue, snr, metric="power"):
        if n_ue == 4:
            raise ValueError(message)
        return search(r_elem, config, n_ue, snr, metric)

    monkeypatch.setattr(conventional, "best_subarray_partition",
                        exhausted_at_4)
    cfg = tmp_path / "sub.yaml"
    out = tmp_path / "out"
    cfg.write_text(
        f"output_dir: {out}\nmethods: [sub_array:det]\nn_ue: [2, 4]\n"
        "quadrature: {bs: [24, 48], ue: [24, 48]}\n"
        "conventional: {n_v: 4, n_h: 4, beam_interval: 2}\n")
    assert cli.main(["run", "--quiet", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: methods: sub_array_det: N_UE = 4: {message}\n")
    assert (out / "sub_array_det" / "n_ue_2" / "capacity.json").is_file()
    assert not (out / "sub_array_det" / "n_ue_4").exists()


def test_sub_array_rules_run_side_by_side(tmp_path):
    # the power and det rules of the sub-array search carry their own
    # labels, so one scenario runs both and compare can tell their rows apart
    cfg = tmp_path / "both.yaml"
    out = tmp_path / "out"
    cfg.write_text(
        f"output_dir: {out}\nmethods: [sub_array, sub_array:det]\n"
        "n_ue: [2]\nquadrature: {bs: [24, 48], ue: [24, 48]}\n"
        "conventional: {n_v: 4, n_h: 4, beam_interval: 2}\n")
    assert cli.main(["run", "--quiet", str(cfg)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert [p["method"] for p in man["points"]] == ["sub_array",
                                                    "sub_array_det"]
    for label in ("sub_array", "sub_array_det"):
        assert (out / label / "n_ue_2" / "capacity.json").is_file()


def test_profile_overflow_is_a_scenario_error(tmp_path, capsys):
    # the theta nodes miss sigma = 0.5 deg on all four angles: validation
    # reports it from the theta rules alone, whether a codebook or only an
    # OBPB method is asked for, and the run writes nothing.  A +-178 deg,
    # 4 deg / 8 deg profile passes the theta rule and validation, but its
    # nodal density, which the codebook path reads, overflows a float on
    # these grids: only the run sees it
    narrow = "profile: {sigma: [0.5, 0.5, 0.5, 0.5]}\n"
    near_pi = ("profile: {mean_bs: [90, 178], mean_ue: [90, -178], "
               "sigma: [4, 8, 4, 8]}\n")
    codebook = ("methods: [full_array:power]\n"
                "conventional: {n_v: 4, n_h: 4, beam_interval: 2}\n")
    obpb_only = ("methods: [obpb:optimal]\nobpb: {m_max: 2}\n"
                 "antenna: {bs_aperture_side: 1.0, ue_aperture_side: 0.5}\n")
    for name, (profile, methods, grids, message, valid) in {
            "narrow_codebook": (narrow, codebook, "[24, 48], ue: [24, 48]",
                                "theta nodes too coarse for the spreads", 1),
            "narrow_obpb": (narrow, obpb_only, "[24, 48], ue: [24, 48]",
                            "theta nodes too coarse for the spreads", 1),
            "near_pi_codebook": (near_pi, codebook, "[48, 96], ue: [24, 48]",
                                 "profile density overflows a float", 0),
    }.items():
        cfg = tmp_path / f"{name}.yaml"
        out = tmp_path / name
        cfg.write_text(f"output_dir: {out}\nn_ue: [2]\n"
                       f"quadrature: {{bs: {grids}}}\n{profile}{methods}")
        assert cli.main(["validate", str(cfg)]) == valid, name
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: profile: {message}" if valid else ""), name
        assert cli.main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: profile: {message}"), name
        assert not out.exists()


def test_quadrature_too_coarse_for_the_modes(tmp_path):
    # Gauss-Legendre in cos(theta) and the trapezoid in phi integrate every
    # product of two modes of order <= N exactly from N + 1 and 2N + 1 nodes
    # on; coarser grids gave wrong numbers (obpb_plane read 3.56 bits on
    # [2, 2] grids against 1.07 bits on [24, 48] / [12, 24])
    bad = tmp_path / "coarse.yaml"
    obpb = "methods: [obpb:plane]\nn_ue: [4]\n"      # N = 17 / 4
    bad.write_text(obpb + "quadrature: {bs: [2, 2], ue: [2, 2]}\n")
    with pytest.raises(scenario.ScenarioError,
                       match=r"quadrature: bs: \[2, 2\] .*\(N = 17\): "
                             r"needs n_theta >= 18 and n_phi >= 35$"):
        scenario.load_scenario(bad)
    bad.write_text(obpb + "quadrature: {bs: [18, 35], ue: [5, 8]}\n")
    with pytest.raises(scenario.ScenarioError,
                       match=r"quadrature: ue: \[5, 8\] .*\(N = 4\): "
                             r"needs n_theta >= 5 and n_phi >= 9$"):
        scenario.load_scenario(bad)
    bad.write_text(obpb + "quadrature: {bs: [18, 35], ue: [5, 9]}\n")
    assert scenario.load_scenario(bad).quadrature["ue"] == (5, 9)
    # the codebook methods use no modes, but their element correlation
    # needs the same rule (a [2, 2] grid gave 0.0005 bits against 5.396)
    bad.write_text("methods: [full_array:power]\nn_ue: [4]\n"
                   "quadrature: {bs: [2, 2], ue: [2, 2]}\n")
    with pytest.raises(scenario.ScenarioError,
                       match=r"quadrature: bs: \[2, 2\] .* 8 x 8 array "
                             r"\(N = 15\): needs n_theta >= 16 and "
                             r"n_phi >= 31$"):
        scenario.load_scenario(bad)


def test_quadrature_too_coarse_for_the_array(tmp_path):
    # the element phases exp(j 2 pi r^ . x_n) reach harmonic order
    # N = floor(2 pi |x_n|): 6 at the corner of a 4 x 4 half-wavelength
    # array, 15 for 8 x 8; only the BS grid integrates them.  30 deg theta
    # spreads pass the theta rule on these few theta nodes
    path = tmp_path / "array.yaml"
    small = ("methods: [full_array:power, sub_array]\nn_ue: [4]\n"
             "conventional: {n_v: 4, n_h: 4}\n"
             "profile: {sigma: [30, 21, 30, 48]}\n")
    for grid, ok in (([7, 13], True), ([6, 13], False), ([7, 12], False)):
        path.write_text(small + f"quadrature: {{bs: {grid}, ue: [2, 2]}}\n")
        if ok:
            assert scenario.load_scenario(path).quadrature["bs"] == (7, 13)
            continue
        with pytest.raises(scenario.ScenarioError,
                           match=r"quadrature: bs: .* 4 x 4 array \(N = 6\)"
                                 r": needs n_theta >= 7 and n_phi >= 13$"):
            scenario.load_scenario(path)
    path.write_text("methods: [sub_array]\nn_ue: [4]\n"
                    "profile: {sigma: [30, 21, 30, 48]}\n"
                    "quadrature: {bs: [16, 31], ue: [2, 2]}\n")
    assert scenario.load_scenario(path).quadrature["bs"] == (16, 31)


def test_conventional_patterns_match_direct_evaluation(smoke_run):
    # each point's stream columns are the dB patterns of the first report_m
    # beams of its own chain, whatever text the run reused for them
    from obpb import conventional
    _, outcome = smoke_run
    config = conventional.ArrayConfig(n_v=4, n_h=4, beam_interval=2)
    man = json.loads(outcome.manifest_path.read_text())
    phi_cut, theta_cut = scenario._cut_directions(30.0)
    _, _, grid_th, grid_ph = scenario._grid_directions(60.0)
    tables = (("cut_phi_plane.csv", 1, phi_cut[1], phi_cut[2]),
              ("cut_theta_plane.csv", 1, theta_cut[1], theta_cut[2]),
              ("pattern_grid.csv", 2, grid_th, grid_ph))
    checked = 0
    for point in man["points"]:
        if point["method"] not in ("full_array_det", "sub_array"):
            continue
        if point["method"] == "sub_array":
            weights, _ = oracles.subarray_codebook(
                config, tuple(point["sub_shape"]))
        else:
            weights = conventional.dft_codebook(config)
        beams = weights[:, point["selection_chain"][:point["report_m"]]]
        for fname, lead, theta, phi in tables:
            got = np.loadtxt(outcome.output_dir / point["artifacts"] / fname,
                             delimiter=",", skiprows=1, ndmin=2)[:, lead:].T
            want = scenario._element_pattern_db(
                beams, conventional.steering_matrix(config, theta, phi))
            assert got.shape == want.shape
            got_lin, want_lin = 10.0 ** (got / 10.0), 10.0 ** (want / 10.0)
            peak = want_lin.max(axis=1, keepdims=True)
            assert np.all(np.abs(got_lin - want_lin) <= 1e-12 * peak), \
                (point["method"], point["n_ue"], fname)
            checked += 1
    assert checked == 2 * 2 * 3


@pytest.mark.parametrize("steps", [(30.0, 60.0), (1.0, 3.0)])
@pytest.mark.parametrize("n_tr", [3, 17])
@pytest.mark.parametrize("m", [1, 12])
def test_mode_patterns_match_dense_field_evaluation(steps, n_tr, m):
    # the product-grid patterns of every artifact table against the dense
    # (J x directions) field matrices of the same direction lists
    from obpb.modes import ModeSet, far_field_matrix
    modeset = ModeSet(truncation_order=n_tr)
    rng = np.random.default_rng(n_tr + m)
    q = (rng.standard_normal((modeset.mode_count, m))
         + 1j * rng.standard_normal((modeset.mode_count, m)))
    phi_cut, theta_cut = scenario._cut_directions(steps[0])
    _, _, grid_th, grid_ph = scenario._grid_directions(steps[1])
    for theta, phi in ((phi_cut[1], phi_cut[2]), (theta_cut[1], theta_cut[2]),
                       (grid_th, grid_ph)):
        kth, kph = far_field_matrix(modeset, theta, phi)
        want = np.abs(q.T @ kth) ** 2 + np.abs(q.T @ kph) ** 2
        got = 10.0 ** (scenario._ModeDirections(modeset, theta, phi)
                       .pattern_db(q) / 10.0)
        assert got.shape == want.shape == (m, theta.size)
        peak = want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * peak), theta.size


DESK_OBPB_YAML = """\
name: desk_obpb
output_dir: {out}
methods: [obpb:optimal, obpb:plane, obpb:one_32_sphere, obpb:hemisphere]
n_ue: [2, 4]
quadrature:
  bs: [48, 96]
  ue: [24, 48]
antenna:
  bs_aperture_side: 1.0
  ue_aperture_side: 1.0
obpb:
  m_max: 4
artifacts:
  cut_step_deg: 30.0
  grid_step_deg: 60.0
"""


def _compare_artifact_trees(a, b):
    """Largest deviations of tree b from tree a, by kind of value.

    The file lists, every string, integer and flag (m_opt, report_m,
    iteration counts, surface ranks and sample counts) and every float not
    named below must be equal.  Returned: objective histories and
    capacities (relative), det_db (dB), stream patterns (linear power over
    each stream's peak) and correlation.csv entries (absolute).
    """
    import csv
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file())
    worst = dict.fromkeys(("history", "capacity", "det_db", "pattern",
                           "correlation"), 0.0)

    def note(kind, err):
        worst[kind] = max(worst[kind], float(err))

    def walk(x, y, key, in_capacity):
        assert type(x) is type(y), key
        if isinstance(x, dict):
            assert list(x) == list(y), key
            for k in x:
                walk(x[k], y[k], k, in_capacity or k == "capacity")
        elif isinstance(x, list):
            assert len(x) == len(y), key
            for u, v in zip(x, y):
                walk(u, v, key, in_capacity)
        elif isinstance(x, float) and key == "objective_history":
            note("history", abs(y - x) / abs(x))
        elif isinstance(x, float) and key == "det_db":
            note("det_db", abs(y - x))
        elif isinstance(x, float) and (in_capacity or key == "capacity_bits"):
            note("capacity", abs(y - x) / abs(x) if x else abs(y))
        else:
            assert x == y, key

    for rel in files:
        if rel.suffix == ".json":
            walk(json.loads((a / rel).read_text()),
                 json.loads((b / rel).read_text()), None, False)
            continue
        with open(a / rel, newline="") as fa, open(b / rel, newline="") as fb:
            ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
        assert ra[0] == rb[0] and len(ra) == len(rb), rel
        for col, name in enumerate(ra[0]):
            xa = [row[col] for row in ra[1:]]
            xb = [row[col] for row in rb[1:]]
            if name.startswith("stream_"):
                la = 10.0 ** (np.array(xa, dtype=float) / 10.0)
                lb = 10.0 ** (np.array(xb, dtype=float) / 10.0)
                note("pattern", np.abs(lb - la).max() / la.max())
            elif name == "abs":
                note("correlation", np.abs(np.array(xb, dtype=float)
                                           - np.array(xa, dtype=float)).max())
            elif name in ("capacity_bits", "det_db"):
                for u, v in zip(xa, xb):
                    walk(float(u), float(v), name, False)
            else:
                assert xa == xb, (rel, name)
    return worst


def test_artifacts_match_dense_solvers(tmp_path, monkeypatch):
    # the Krylov eigensolver and the projectors (the mirror-class sums, or
    # the QR-reduced whole-Z route) against dense eigh and a full SVD of
    # every transfer matrix, on all four OBPB families
    import scipy.sparse.linalg
    from obpb import surfaces
    cfg = tmp_path / "desk.yaml"
    cfg.write_text(DESK_OBPB_YAML.format(out=tmp_path / "krylov"))
    solves = []
    krylov_eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *a, **k: solves.append(a[0].shape[0])
                        or krylov_eigsh(*a, **k))
    krylov = scenario.run_scenario(scenario.load_scenario(cfg))
    man = json.loads(krylov.manifest_path.read_text())
    # both sides (J = 48) ran the Krylov solver, runs took several
    # half-steps, and the hemisphere's Z is wide
    assert solves.count(48) > 2 * 4
    assert max(h["iterations"] for h in man["obpb_histories"].values()) > 1
    hemi = man["resolved"]["surfaces"]["shapes"]["hemisphere"]
    assert 2 * hemi["n_points"] > man["resolved"]["modes"]["j_bs"]

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "forced", np.empty(0), np.empty((0, 0)))

    factored = []

    def full_svd(z, rtol):
        factored.append(z.shape)
        u, s, _ = np.linalg.svd(z, full_matrices=False)
        r = surfaces._rank(s, rtol)
        return s, u[:, :r] @ u[:, :r].conj().T

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(surfaces, "_whole", full_svd)
    monkeypatch.setattr(surfaces, "_by_classes", lambda *args: None)
    monkeypatch.setattr(surfaces, "surface_mirrors", lambda *args: [])
    scn = scenario.load_scenario(cfg)
    scn.output_dir = str(tmp_path / "dense")
    dense = scenario.run_scenario(scn)
    assert krylov.exit_code == dense.exit_code == 0
    # the dense run's projectors, the hemisphere's included, come from a
    # full SVD of every Z, not the class rule or the QR route
    assert (man["resolved"]["modes"]["j_bs"], 2 * hemi["n_points"]) \
        in factored
    assert len(factored) == 3
    worst = _compare_artifact_trees(dense.output_dir, krylov.output_dir)
    assert worst["history"] <= 1e-12
    assert worst["capacity"] <= 1e-12
    assert worst["det_db"] <= 1e-9
    assert worst["pattern"] <= 1e-10
    assert worst["correlation"] <= 1e-10


def test_nonconvergence_exits_2(tmp_path):
    cfg = tmp_path / "starved.yaml"
    cfg.write_text(SMOKE_YAML.format(out=tmp_path / "out")
                   .replace("max_iterations: 60", "max_iterations: 1")
                   .replace("methods: [obpb:plane, obpb:optimal, "
                            "full_array:det, sub_array]",
                            "methods: [obpb:optimal]"))
    outcome = scenario.run_scenario(scenario.load_scenario(cfg))
    assert outcome.exit_code == 2
    man = json.loads(outcome.manifest_path.read_text())
    assert man["converged"] is False


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def test_cli_validate_ok(smoke_run, capsys):
    cfg, _ = smoke_run
    assert cli.main(["validate", str(cfg)]) == 0
    assert "ok (4 methods x 2 N_UE points" in capsys.readouterr().out


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("methods: []\nn_ue: [4]\n")
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "methods" in err

    # a stream count the smaller end cannot carry fails before any run
    bad.write_text("methods: [obpb:optimal]\nn_ue: [4]\n"
                   "antenna: {bs_aperture_side: 1.0, ue_aperture_side: 0.5}\n"
                   "obpb: {m_max: 20}\n")
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "obpb: m_max" in err


def test_cli_run_quiet(tmp_path, capsys):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(SMOKE_YAML.format(out=tmp_path / "out")
                   .replace("methods: [obpb:plane, obpb:optimal, "
                            "full_array:det, sub_array]",
                            "methods: [sub_array]")
                   .replace("n_ue: [2, 4]", "n_ue: [2]"))
    assert cli.main(["run", "--quiet", str(cfg)]) == 0
    out = capsys.readouterr().out
    # progress suppressed; only the final artifact line remains
    assert out.strip().startswith("wrote ")
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_cli_compare(smoke_run, tmp_path, capsys):
    _, outcome = smoke_run
    # a second, byte-identical run stands in for an alternative scenario
    twin = tmp_path / "twin"
    shutil.copytree(outcome.output_dir, twin)
    out_csv = tmp_path / "cmp.csv"
    rc = cli.main(["compare", str(outcome.manifest_path),
                   str(twin / "manifest.json"),
                   "--baseline", "sub_array", "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["source", "method"]
    assert "capacity_ratio_vs_sub_array" in header
    assert len(lines) == 1 + 2 * 8
    # the baseline rows carry ratio 1.0
    ratio_col = header.index("capacity_ratio_vs_sub_array")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "sub_array":
            assert float(cells[ratio_col]) == pytest.approx(1.0)


def test_cli_compare_out_makes_its_directories(smoke_run, tmp_path, capsys):
    # --out goes through the artifacts' text writer: a missing directory is
    # made (it ended in a FileNotFoundError traceback), and the file holds
    # the bytes compare prints without --out
    _, outcome = smoke_run
    args = ["compare", str(outcome.manifest_path), str(outcome.manifest_path)]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    out_csv = tmp_path / "new" / "dir" / "cmp.csv"
    assert cli.main(args + ["--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == f"wrote {out_csv}\n"
    assert out_csv.read_bytes() == printed.encode()


@pytest.mark.parametrize("below", [(), ("tiny",), ("a", "b")])
def test_run_into_a_blocked_output_path_fails_before_computing(
        tmp_path, capsys, monkeypatch, below):
    # a file on the output path ended in a NotADirectoryError traceback at
    # the first point's write, after every point had been computed; now
    # the run stops before any bundle is built and makes nothing
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way\n")
    cfg = tmp_path / "blocked.yaml"
    cfg.write_text(SMOKE_YAML.format(out=blocker.joinpath(*below)))

    def computed(*args):
        raise AssertionError("computed before the output check")

    monkeypatch.setattr(scenario, "_ObpbBundle", computed)
    monkeypatch.setattr(scenario, "_ConventionalBundle", computed)
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: output_dir: {blocker} is not a writable directory\n")
    assert sorted(tmp_path.iterdir()) == sorted([blocker, cfg])
    assert blocker.read_text() == "in the way\n"


def test_run_reports_a_failed_write(tmp_path, capsys):
    # a file where a method's directory goes passes the output check and
    # fails at the write, which cli reports as path and reason
    out = tmp_path / "out"
    out.mkdir()
    (out / "obpb_plane").write_text("")
    cfg = tmp_path / "blocked.yaml"
    cfg.write_text(SMOKE_YAML.format(out=out))
    assert cli.main(["run", "--quiet", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        f"error: {out / 'obpb_plane' / 'n_ue_2'}: Not a directory\n"


def test_cli_compare_reports_an_unwritable_out(smoke_run, tmp_path, capsys):
    # --out FILE/x.csv ended in a FileExistsError traceback
    _, outcome = smoke_run
    args = ["compare", str(outcome.manifest_path), str(outcome.manifest_path)]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert cli.main(args + ["--out", str(blocker / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {blocker}: File exists\n"
    assert cli.main(args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    assert blocker.read_text() == ""


def test_cli_compare_needs_two_manifests(smoke_run, capsys):
    _, outcome = smoke_run
    assert cli.main(["compare", str(outcome.manifest_path)]) == 1
    assert "at least two" in capsys.readouterr().err


def test_cli_compare_rejects_unknown_baseline(smoke_run, tmp_path, capsys):
    _, outcome = smoke_run
    twin = tmp_path / "twin2"
    shutil.copytree(outcome.output_dir, twin)
    rc = cli.main(["compare", str(outcome.manifest_path),
                   str(twin / "manifest.json"), "--baseline", "maximal"])
    assert rc == 1
    assert "maximal" in capsys.readouterr().err


def test_cli_compare_rejects_non_manifest_json(smoke_run, tmp_path, capsys):
    # JSON that is not a mapping ended in a TypeError traceback, and a
    # mapping without a profile, or a point without the compared keys, in a
    # KeyError traceback
    _, outcome = smoke_run
    stray = tmp_path / "stray.json"
    for text in ("{\"hello\": 1}\n", "3\n", "[\"points\", \"resolved\"]\n",
                 "{\"points\": [], \"resolved\": {}}\n",
                 "{\"points\": [{\"n_ue\": 4}], "
                 "\"resolved\": {\"profile\": {}}}\n"):
        stray.write_text(text)
        rc = cli.main(["compare", str(outcome.manifest_path), str(stray)])
        assert rc == 1
        assert "not a run manifest" in capsys.readouterr().err
    # a real manifest with one point value of the wrong type ended in a
    # ValueError ("four") or TypeError (null, [3]) traceback; a bool is not
    # a count
    man = json.loads(outcome.manifest_path.read_text())
    for key, value in (("n_ue", "four"), ("capacity_bits", None),
                       ("m_opt", [3]), ("n_ue", True)):
        bad = json.loads(json.dumps(man))
        bad["points"][0][key] = value
        stray.write_text(json.dumps(bad))
        rc = cli.main(["compare", str(outcome.manifest_path), str(stray)])
        assert rc == 1, (key, value)
        assert "not a run manifest" in capsys.readouterr().err
    # a determinant of -inf, as codebook runs write one, is still a number
    man["points"][0]["det_db"] = -np.inf
    stray.write_text(json.dumps(man))
    assert cli.main(["compare", str(outcome.manifest_path), str(stray)]) == 0
    assert "-inf" in capsys.readouterr().out
