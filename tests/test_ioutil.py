"""The one-pass report encoder writes the text the standard library writes.

``reference`` is the encoder ``dumps_canonical`` replaced: a copy of the tree
with dataclasses as dicts, tuples as lists and non-finite floats as None,
then ``json.dumps`` with the same indentation and sorted keys.
"""

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonstats.cli as cli
from photonstats.ioutil import dumps_canonical, write_text_atomic

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def json_safe(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: json_safe(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def reference(obj) -> str:
    return json.dumps(json_safe(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def assert_same_text(obj):
    assert dumps_canonical(obj) == reference(obj)


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Pair:
    zeta: object
    alpha: object


@dataclasses.dataclass(frozen=True)
class Triple:
    b: object
    c: object
    a: object


# ------------------------------------------------------------ CLI reports

def _record_reports(monkeypatch) -> list:
    """Every object the CLI hands to dumps_canonical, in order."""
    reports = []

    def recording(obj):
        reports.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    return reports


def _run_commands(config: Path, out: Path, reconstruct_config: Path) -> None:
    """simulate, analyze with and without the sidecar, reconstruct, and
    sweep when the config has a pump."""
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["analyze", "--histogram", str(out / "histogram.csv"),
                     "--out", str(out)]) == cli.EXIT_OK
    bare = out / "bare"
    bare.mkdir()
    shutil.copy(out / "histogram.csv", bare / "instrument.csv")
    assert cli.main(["analyze", "--histogram", str(bare / "instrument.csv"),
                     "--out", str(bare)]) == cli.EXIT_OK
    assert cli.main(["reconstruct", "--analysis", str(out / "analysis.json"),
                     "--config", str(reconstruct_config), "--out", str(out)]) == cli.EXIT_OK
    if "pump" in json.loads(config.read_text()):
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK


@pytest.mark.parametrize("name, reconstruct_with", [
    ("operating_point_eta0.617.json", "operating_point_eta0.617.json"),
    ("operating_point_eta0.67.json", "operating_point_eta0.67.json"),
    ("pump_sweep.json", "pump_sweep.json"),
    ("reconstruction.json", "reconstruction.json"),
])
def test_example_reports_match(tmp_path, monkeypatch, name, reconstruct_with):
    reports = _record_reports(monkeypatch)
    _run_commands(EXAMPLES / name, tmp_path, EXAMPLES / reconstruct_with)
    # gate counts, sidecar, two analyses and the negativity report
    assert len(reports) == 5
    for report in reports:
        assert_same_text(report)


def test_criterion_9_reports_match(tmp_path, monkeypatch):
    cfg = {
        "schema_version": 1,
        "source": {"kind": "pdc_pairs", "cutoff": 14, "mean": 0.2055},
        "detector": {"eta": 0.617, "dark_mean": 4e-4},
        "pump": {"powers": [0.1, 1.0], "pairs_per_uW": 0.2253},
        "n_gates": 100_000,
        "cutoff": 14,
        "seed": 91,
        "output_dir": str(tmp_path / "out"),
        "bins": 400,
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    recon = tmp_path / "recon.json"
    recon.write_text(json.dumps(dict(cfg, cutoff=10, source=dict(cfg["source"], cutoff=10))))
    reports = _record_reports(monkeypatch)
    _run_commands(config, tmp_path / "out", recon)
    assert len(reports) == 5
    for report in reports:
        assert_same_text(report)


# ------------------------------------------------------------ generated trees

FLOATS = st.one_of(st.floats(), st.floats().map(np.float64))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80), FLOATS, st.text(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.just(Empty()),
        st.builds(Pair, children, children),
        st.builds(Triple, children, children, children),
    )


TREES = st.recursive(LEAVES, _containers, max_leaves=30)


@given(TREES)
@settings(max_examples=300, deadline=None)
def test_generated_trees_match(tree):
    assert_same_text(tree)


@pytest.mark.parametrize("text", [
    "", 'say "hi"', "back\\slash", "\\\"", "tab\there", "line\nbreak\r\n",
    "".join(map(chr, range(32))), "\x7f", "café", "日本", "\U0001f4a1",
    "  ", "\ud800", "/slash",
])
def test_strings_match(text):
    assert_same_text(text)
    assert_same_text({text: [text]})


@pytest.mark.parametrize("number", [
    0, -1, 2**63, 2**64, -2**64 - 1, 10**100,
    0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7,
    math.nan, math.inf, -math.inf,
    np.float64(0.1), np.float64(math.nan), np.float64(-math.inf),
])
def test_numbers_match(number):
    assert_same_text(number)
    assert_same_text([number, {"x": (number,)}])


@pytest.mark.parametrize("tree", [
    [], (), {}, Empty(),
    [[]], [{}], {"a": []}, {"a": {}}, {"a": Empty()},
    [[[]], {"b": [{}]}, ()], Pair([], {}), Triple({"x": [[], {}]}, (), Empty()),
])
def test_empty_containers_match(tree):
    assert_same_text(tree)


def test_deep_nesting_matches():
    tree = 0.5
    for depth in range(40):
        tree = [tree] if depth % 2 else {"k": tree}
    assert_same_text(tree)


@pytest.mark.parametrize("bad", [
    np.int64(3), np.bool_(True), np.array([1.0, 2.0]), {1, 2}, {1: "one"}, {None: 1},
    object(), [1, np.int64(2)], {"ok": {"nested": np.bool_(False)}},
], ids=["int64", "bool_", "ndarray", "set", "int-key", "none-key", "object",
        "nested-int64", "nested-bool_"])
def test_non_json_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        dumps_canonical(bad)



@pytest.mark.parametrize("case", ["unencodable-text", "directory-at-target"])
def test_failed_write_leaves_no_temporary_file(tmp_path, case):
    # a write that fails part way, or a rename onto a directory, removes the
    # temporary file and leaves the target as it was
    target = tmp_path / "report.json"
    text = "\udc80" if case == "unencodable-text" else "{}\n"
    if case == "directory-at-target":
        target.mkdir()
    with pytest.raises((UnicodeEncodeError, IsADirectoryError)):
        write_text_atomic(target, text)
    assert not list(tmp_path.glob("*.tmp"))
    assert target.exists() == (case == "directory-at-target")
