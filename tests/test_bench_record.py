"""The BENCH recorder's summary statistics and timing-field blanking."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


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
