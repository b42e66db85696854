"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

It checks that every checker counts a corrupted result (a dropped row, a
wrong table entry) as a failed job, that the seeded inputs repeat, that the
layer each workload is chosen for reads non-zero in a traced job (so a
wrapper on a dead binding cannot silently read zero), and that
BENCHMARK.json names what the run prints.  The file is not named test_*.py,
so the library's own test run does not collect it.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import posheaf.derived  # noqa: E402
import posheaf.poset  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Layers each workload exists to exercise; their spans must read non-zero.
EXPECTED_LAYERS = {
    "resolve-gf2": ("resolution.coh_dims", "resolution.make_exact", "matrix.complement", "matrix.rank"),
    "derived-gf3": ("derived.peel", "resolution.order_complex", "sheaf.hull", "derived.proper"),
    "morse-cli": ("poset.cylinder", "derived.pullback", "morse.table", "io.parse", "cli.main"),
}


@pytest.fixture(scope="module")
def traced_jobs():
    """One traced job per workload on the first input of seed 0."""
    workdir = run.OUT_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            item = workload.build(0, workdir)[0]
            ref = workload.reference(item)
            recorder = spans.Recorder()
            recorder.install()
            try:
                result = recorder.run_job(workload.job, item)
            finally:
                recorder.uninstall()
            out[name] = (workload, item, ref, result, recorder)
        yield out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _drop_row(complex_):
    m = next(m for m in complex_.matrices if m.nrows)
    del m.rows[-1]
    del m.row_labels[-1]


def _mislabel_summand(complex_, poset):
    m = next(m for m in complex_.matrices if m.ncols)
    m.col_labels[0] = next(e for e in poset.elements if e != m.col_labels[0])


def _corrupt_resolve_row(result):
    _drop_row(result["resolution"])


def _corrupt_resolve_entry(result):
    top = max(result["hypercohomology"])
    result["hypercohomology"][top] += 1


def _corrupt_derived_row(result):
    _drop_row(result["pushpull"])


def _corrupt_derived_entry(result):
    _mislabel_summand(result["peeled"], result["peeled"].poset)


def _corrupt_morse_row(result):
    lines = result["stdout"].splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("superlevel star"))
    del lines[start + 2]
    result["stdout"] = "".join(lines)


def _corrupt_morse_entry(result):
    lines = result["stdout"].splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("sublevel star"))
    level, values = lines[start + 3].rsplit(None, 1)
    first, rest = values.split(",", 1)
    lines[start + 3] = f"{level} {int(first) + 1},{rest}\n"
    result["stdout"] = "".join(lines)


CORRUPTIONS = {
    "resolve-gf2": (_corrupt_resolve_row, _corrupt_resolve_entry),
    "derived-gf3": (_corrupt_derived_row, _corrupt_derived_entry),
    "morse-cli": (_corrupt_morse_row, _corrupt_morse_entry),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_passes_the_real_result(traced_jobs, name):
    workload, item, ref, result, _rec = traced_jobs[name]
    *_times, ok = run.attempt(lambda _item: result, workload.check, item, ref, run.HostClock())
    assert ok


@pytest.mark.parametrize(
    "name,corrupt",
    [(name, c) for name, cs in sorted(CORRUPTIONS.items()) for c in cs],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_corrupted_result_counts_as_failed(traced_jobs, name, corrupt):
    workload, item, ref, result, _rec = traced_jobs[name]
    bad = copy.deepcopy(result)
    corrupt(bad)
    *_times, ok = run.attempt(lambda _item: bad, workload.check, item, ref, run.HostClock())
    assert not ok


def test_job_exception_counts_as_failed():
    def boom(_item):
        raise RuntimeError("job failed")

    *_times, ok = run.attempt(boom, lambda ref, result: True, None, None, run.HostClock())
    assert not ok


@pytest.mark.parametrize("name", sorted(EXPECTED_LAYERS))
def test_expected_spans_are_nonzero(traced_jobs, name):
    *_rest, recorder = traced_jobs[name]
    assert recorder.absent == []
    for layer in EXPECTED_LAYERS[name]:
        assert recorder.calls[layer] > 0, layer
        assert recorder.self_s[layer] > 0, layer
    metrics = recorder.metrics(1.0, 1.0)
    assert [k for k in metrics] == [n for n, _u, _b in spans.PER_LAYER]
    assert 0.9 < metrics["trace.accounted_ratio"]["value"] <= 1.0


def test_reimported_bindings_are_wrapped_and_restored():
    original = posheaf.poset.mapping_cylinder
    assert posheaf.derived.mapping_cylinder is original
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert posheaf.poset.mapping_cylinder is not original
        assert posheaf.derived.mapping_cylinder is posheaf.poset.mapping_cylinder
        assert posheaf.mapping_cylinder is posheaf.poset.mapping_cylinder
    finally:
        recorder.uninstall()
    assert posheaf.poset.mapping_cylinder is original
    assert posheaf.derived.mapping_cylinder is original


def test_missing_binding_is_reported_absent():
    recorder = spans.Recorder()
    recorder.install(targets=(("poset.build", "posheaf.poset", "no_such_function", None),
                              ("poset.build", "posheaf.poset", "NoSuchClass.method", None)))
    recorder.uninstall()
    assert recorder.absent == ["posheaf.poset.no_such_function", "posheaf.poset.NoSuchClass.method"]
    assert recorder.metrics(1.0, 1.0)["poset.build.self_s"]["value"] == 0


def _signature(name, inputs):
    if name == "resolve-gf2":
        return [c.face_poset.elements for c in inputs]
    if name == "derived-gf3":
        return [(F.stalk_dim, sorted(z.members)) for F, z in inputs]
    return [(Path(c).read_text(), Path(m).read_text()) for _sc, _o, c, m in inputs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    workload = workloads.WORKLOADS[name]
    workdir = run.OUT_DIR / "selftest-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        first = _signature(name, workload.build(5, workdir))
        again = _signature(name, workload.build(5, workdir))
        other = _signature(name, workload.build(6, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert first == again
    assert first != other


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
