"""`tools/tree_diff.py` on two tiny artifact trees."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "tree_diff", ROOT / "tools" / "tree_diff.py")
tree_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tree_diff)


def _tree(root, source):
    (root / "m" / "n_ue_4").mkdir(parents=True)
    (root / "m" / "n_ue_4" / "cut.csv").write_text("phi_deg,db\n-180.0,1.5\n")
    (root / "summary.csv").write_text("method,n_ue\nm,4\n")
    # the manifest's own layout: sorted keys, two-space indent
    (root / "manifest.json").write_text(json.dumps(
        {"points": [{"method": "m", "n_ue": 4, "selection_chain": [3, 0],
                     "source": "kept"}], "source": source}, indent=2,
        sort_keys=True) + "\n")
    return root


def test_trees_that_differ_only_in_the_source_line_match(tmp_path, capsys):
    a = _tree(tmp_path / "a", "one/scenario.yaml")
    b = _tree(tmp_path / "b", "other/scenario.yaml")
    assert tree_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical: 3 files\n"


def test_one_changed_byte_and_one_extra_file_are_listed(tmp_path, capsys):
    a = _tree(tmp_path / "a", "s.yaml")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    cut = b / "m" / "n_ue_4" / "cut.csv"
    cut.write_bytes(cut.read_bytes().replace(b"1.5", b"1.6"))
    (a / "extra.csv").write_text("x\n")
    assert tree_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: extra.csv", "differs: m/n_ue_4/cut.csv"]
    # a nested "source" key is content, not the run's scenario path
    manifest = b / "manifest.json"
    manifest.write_text(manifest.read_text().replace("kept", "moved"))
    assert tree_diff.tree_diff(a, b)[2] == ["m/n_ue_4/cut.csv",
                                             "manifest.json"]


def test_a_missing_tree_is_an_error(tmp_path, capsys):
    a = _tree(tmp_path / "a", "s.yaml")
    assert tree_diff.main([str(a), str(tmp_path / "none")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_numeric_diff_names_each_kind_of_difference(tmp_path, capsys):
    a = _tree(tmp_path / "a", "one/scenario.yaml")
    b = _tree(tmp_path / "b", "other/scenario.yaml")
    assert tree_diff.main(["--numeric", "1e-9", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "m n_ue=4: identical", "run: identical",
        "2 points: 2 identical, 0 within 1e-09, 0 moved"]
    # a cell 1e-12 off is within 1e-9 of the other tree and moved at 1e-13
    cut = b / "m" / "n_ue_4" / "cut.csv"
    cut.write_text(cut.read_text().replace("1.5", repr(1.5 * (1 + 1e-12))))
    assert tree_diff.main(["--numeric", "1e-9", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("m/n_ue_4/cut.csv: db: abs 1.5e-12 at line 2")
    assert out[1:3] == ["m n_ue=4: within 1e-09", "run: identical"]
    assert tree_diff.main(["--numeric", "1e-13", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "m n_ue=4: moved: m/n_ue_4/cut.csv: db: line 2: 1.5 -> ")
    # a chain entry is compared exactly, and a missing file moves the run
    manifest = b / "manifest.json"
    manifest.write_text(manifest.read_text().replace("3,", "4,"))
    (a / "extra.csv").write_text("x\n")
    assert tree_diff.main(["--numeric", "1e-9", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "manifest.json: selection_chain: points[0].selection_chain: "
        "[3, 0] -> [4, 0]",
        "m n_ue=4: moved: manifest.json: selection_chain: "
        "points[0].selection_chain: [3, 0] -> [4, 0]",
        f"run: moved: extra.csv: file: only in {a}",
        "2 points: 0 identical, 0 within 1e-09, 2 moved"]
