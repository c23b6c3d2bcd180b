"""The BENCH recorder's summary statistics, timing-field blanking and
``--src`` option, and the digest gate's key comparison."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
_spec = importlib.util.spec_from_file_location("digest_gate", _PATH.with_name("digest_gate.py"))
digest_gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_record", bench_record)  # what digest_gate imports
_spec.loader.exec_module(digest_gate)


@pytest.mark.parametrize("values, median, low, iqr", [
    ([3.0, 1.0, 2.0, 5.0, 4.0], 3.0, 1.0, 2.0),   # quartiles 2 and 4
    ([4.0, 1.0, 3.0, 2.0], 2.5, 1.0, 1.5),        # linear quartiles 1.75 and 3.25
    ([0.25], 0.25, 0.25, 0.0),
])
def test_summary_is_median_min_and_iqr(values, median, low, iqr):
    got = bench_record.summarize(values)
    assert got == {"median": median, "min": low, "iqr": iqr, "values": values}


def test_json_timing_fields_blanked():
    a = {"wall_s": 0.0123, "newton_iters": 24, "dt": 300.0, "unused_s": None}
    b = dict(a, wall_s=0.5)
    blank = json.loads(bench_record.blank_timing_fields("run_meta.json",
                                                        json.dumps(a).encode()))
    assert blank == {"wall_s": "T", "newton_iters": 24, "dt": 300.0, "unused_s": None}
    # only the timing values may differ between two files with one digest
    assert (bench_record.blank_timing_fields("m.json", json.dumps(a).encode())
            == bench_record.blank_timing_fields("m.json", json.dumps(b).encode()))
    c = dict(a, newton_iters=25)
    assert (bench_record.blank_timing_fields("m.json", json.dumps(a).encode())
            != bench_record.blank_timing_fields("m.json", json.dumps(c).encode()))


def test_csv_timing_cells_blanked_and_empty_cells_kept():
    text = ("mode,k,online_s,end_to_end_s,relerr_u\r\n"
            "full,,,0.25,\r\n"
            "pod-deim,8,0.0042,0.5,1.5e-3\r\n")
    got = bench_record.blank_timing_fields("run_report.csv", text.encode()).decode()
    assert got == ("mode,k,online_s,end_to_end_s,relerr_u\n"
                   "full,,,T,\n"
                   "pod-deim,8,T,T,1.5e-3\n")
    other = text.replace("0.0042", "0.0051").replace("0.25", "0.31")
    assert (bench_record.blank_timing_fields("r.csv", other.encode()).decode() == got)
    changed = text.replace("1.5e-3", "1.6e-3")
    assert bench_record.blank_timing_fields("r.csv", changed.encode()).decode() != got


def test_other_files_hashed_as_written():
    data = b"SWESNAP1" + bytes(range(40))
    assert bench_record.blank_timing_fields("snapshots.snap", data) == data


def test_src_needs_digests_only_and_a_swerom_checkout(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--label", "x", "--src", str(bench_record.ROOT)])
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--digests-only", "cli-61x45-nt30-k12-m24", "--src",
                                 str(tmp_path)])
    args = bench_record.parse_args(["--digests-only", "cli-61x45-nt30-k12-m24", "--src",
                                    str(bench_record.ROOT)])
    assert args.src == bench_record.ROOT


def test_src_checkout_is_the_one_imported(tmp_path):
    # a checkout whose swerom fails on import: the digest run must fail with its message
    pkg = tmp_path / "src" / "swerom"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("raise ImportError('the swerom of the --src checkout')\n")
    proc = subprocess.run([sys.executable, str(_PATH), "--digests-only",
                           "cli-61x45-nt30-k12-m24", "--src", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "the swerom of the --src checkout" in proc.stderr


def test_gate_keys_and_their_differences():
    base = {"w": {"library": {"a": "1", "b": "2"}, "cli": {"f/x.csv": "3"}}}
    head = {"w": {"library": {"a": "1", "b": "9"}, "cli": {"f/x.csv": "3", "f/y.csv": "4"}}}
    flat = digest_gate.flatten(head)
    assert flat == {"w/library/a": "1", "w/library/b": "9", "w/cli/f/x.csv": "3",
                    "w/cli/f/y.csv": "4"}
    # a changed digest and a key that only one side has both differ
    assert digest_gate.differing(digest_gate.flatten(base), flat) == ["w/cli/f/y.csv",
                                                                      "w/library/b"]


def test_gate_reads_only_added_digest_lines():
    base = "old entry\nDIGESTS CHANGED: */library/a an earlier change\n"
    head = base + ("new entry\n"
                   "DIGESTS CHANGED: `*/library/b`, `w/cli/f/*.csv`: the sum starts at zero.\n"
                   "not a DIGESTS CHANGED: x/y line\n")
    patterns = digest_gate.named_patterns(head, base)
    assert patterns == ["*/library/b", "w/cli/f/*.csv"]
    keys = ["w/library/a", "w/library/b", "w/cli/f/y.csv", "w/cli/g.json"]
    assert digest_gate.unnamed(keys, patterns) == ["w/library/a", "w/cli/g.json"]


@pytest.mark.parametrize("line, code", [("", 0), ("DIGESTS CHANGED: w/library/b why", 0),
                                        ("DIGESTS CHANGED: w/library/a why", 1)])
def test_gate_exit_code(tmp_path, monkeypatch, capsys, line, code):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "CHANGES.md").write_text("entry\n")
    (head / "CHANGES.md").write_text(f"entry\n{line}\n")
    same = {"w": {"library": {"a": "1", "b": "2"}}}
    changed = {"w": {"library": {"a": "1", "b": "9" if line else "2"}}}
    monkeypatch.setattr(digest_gate.bench_record, "ROOT", head)
    monkeypatch.setattr(digest_gate.bench_record, "digests",
                        lambda names, src=head: same if src == base.resolve() else changed)
    assert digest_gate.main(["--base", str(base)]) == code
    out = capsys.readouterr().out
    assert ("w/library/b" in out) == bool(line)


def _base_lacking_build_grid(root: Path) -> Path:
    # a base whose swerom is this one without swerom.model.build_grid, the
    # first function the recorder calls
    pkg = root / "src" / "swerom"
    shutil.copytree(_PATH.parent.parent / "src" / "swerom", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(pkg / "__init__.py", "a") as init:
        init.write("\nfrom swerom import model as _model\ndel _model.build_grid\n")
    (root / "CHANGES.md").write_text("entry\n")
    return root


@pytest.mark.parametrize("own_recorder, line, code", [
    (False, "", 1),
    (False, "DIGESTS CHANGED: */* the base's swerom predates the recorder", 0),
    (True, "", 0),
])
def test_gate_on_a_base_this_recorder_cannot_hash(tmp_path, monkeypatch, capsys,
                                                  own_recorder, line, code):
    base = _base_lacking_build_grid(tmp_path / "base")
    if own_recorder:
        # the base's own recorder hashes it, to what this checkout gives
        (base / "tools").mkdir()
        (base / "tools" / "bench_record.py").write_text(
            "import json\nprint(json.dumps({'w': {'library': {'a': '1'}}}))\n")
    head = tmp_path / "head"
    head.mkdir()
    (head / "CHANGES.md").write_text(f"entry\n{line}\n")
    real = digest_gate.bench_record.digests
    monkeypatch.setattr(digest_gate.bench_record, "ROOT", head)
    monkeypatch.setattr(digest_gate.bench_record, "digests",
                        lambda names, src=None, recorder=None:
                        real(names, src, recorder) if src or recorder
                        else {"w": {"library": {"a": "1"}}})
    assert digest_gate.main(["--base", str(base)]) == code
    captured = capsys.readouterr()
    assert "could not hash the base" in captured.err
    assert "build_grid" in captured.err
    assert ("w/library/a" in captured.out) == (not own_recorder)


def test_gate_fails_when_this_checkout_cannot_be_hashed(tmp_path, monkeypatch, capsys):
    def failing(names, src=None, recorder=None):
        raise RuntimeError("digest run exited 1: ImportError")
    monkeypatch.setattr(digest_gate.bench_record, "digests", failing)
    assert digest_gate.main(["--base", str(tmp_path)]) == 1
    assert "this checkout's digests could not be computed" in capsys.readouterr().err
