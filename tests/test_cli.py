import json
import os
import stat

import pytest

from trapsurf import cli, extrinsic
from trapsurf.embedding import Embedding
from trapsurf.extrinsic import ClassificationReport
from trapsurf.quadrature import GridSpec, grid_nodes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_trapped_sphere(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "classify", "--embedding", "ef_sphere:radius=1",
        "--grid", "8,16", "--out-json", str(out_json),
        "--out-csv", str(out_csv),
    )
    assert code == 0
    assert "verdict:   FutureTrapped" in out
    report = json.loads(out_json.read_text())
    assert report["schema"] == "report_v1"
    assert report["kind"] == "classification"
    assert report["verdict"] == "FutureTrapped"
    assert report["grid"] == {"points_per_axis": [8, 16]}
    assert "seed" not in report
    assert len(report["points"]) == 128
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].split(",") == ["u1", "u2", "h_norm2", "label", "margin"]
    assert len(lines) == 129
    assert all("Timelike/Future" in line for line in lines[1:])


def test_classify_is_deterministic(tmp_path, capsys):
    blobs = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        code, _, _ = run(capsys, "classify", "--embedding", "round_sphere",
                         "--grid", "8,8", "--out-json", str(path))
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_classify_with_config_and_overrides(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "embedding": {"catalog": "ef_sphere", "params": {"radius": 3.0}},
        "grid": {"points_per_axis": [8, 8]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", str(path),
                       "--tol", "null_band=1e-6")
    assert code == 0
    assert "verdict:   AbsolutelyNonTrapped" in out


def test_classify_errors(tmp_path, capsys):
    # malformed config: unknown key, exit 64, error JSON names the key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "gird": {},
                               "embedding": {"catalog": "round_sphere"}}))
    code, _, err = run(capsys, "classify", "--config", str(bad))
    assert code == 64
    report = json.loads(err)
    assert report["kind"] == "error"
    assert report["error"]["type"] == "ConfigError"
    assert "gird" in report["error"]["message"]

    # unknown catalog entry: exit 65
    code, _, err = run(capsys, "classify", "--embedding", "no_such_surface")
    assert code == 65
    assert json.loads(err)["error"]["type"] == "UnknownEntry"

    # parameter out of range: exit 64
    code, _, err = run(capsys, "classify", "--embedding",
                       "round_sphere:radius=-1")
    assert code == 64
    assert json.loads(err)["error"]["type"] == "ParamOutOfRange"

    # grid axes must match the parameter dimension
    code, _, err = run(capsys, "classify", "--embedding", "round_sphere",
                       "--grid", "8,8,8")
    assert code == 64

    # bad tolerance syntax
    code, _, err = run(capsys, "classify", "--embedding", "round_sphere",
                       "--grid", "4,4", "--tol", "null_band")
    assert code == 64


@pytest.mark.parametrize("refs", [
    ("--embedding", "round_sphere:radius=abc"),
    ("--embedding", "round_sphere:radius="),
    ("--embedding", "round_sphere:radius=nan"),
    ("--embedding", "round_sphere:radius=inf"),
])
def test_catalog_parameter_text_must_be_a_finite_number(capsys, refs):
    code, out, err = run(capsys, "classify", *refs, "--grid", "4,4")
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ParamOutOfRange"
    assert "must be a finite number" in report["error"]["message"]


@pytest.mark.parametrize("value", [None, True, "abc", [2.0]])
def test_config_catalog_parameter_must_be_a_finite_number(tmp_path, capsys, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere", "params": {"radius": value}},
    }))
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ParamOutOfRange"
    assert "round_sphere.radius" in report["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("classify", "--embedding", "round_sphere", "--grid", "8,x"),
    ("classify", "--embedding", "round_sphere", "--grid", "1,4"),
    ("verify", "killing", "--grid", "8"),
    ("verify", "variation", "--pairs", "1", "--grid", "4"),
])
def test_malformed_grid_is_config_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("name", ["minkowski", "time_translation"])
def test_embedding_of_wrong_kind_is_config_error(capsys, name):
    code, _, err = run(capsys, "classify", "--embedding", name)
    assert code == 64
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert name in report["error"]["message"]


def test_classify_rejects_unused_options(capsys):
    with pytest.raises(SystemExit):
        cli.main(["classify", "--embedding", "round_sphere", "--seed", "3"])
    capsys.readouterr()
    for tol in ("conformal=1e-8", "normal=1e-6", "null_band=abc"):
        code, _, err = run(capsys, "classify", "--embedding", "round_sphere",
                           "--grid", "4,4", "--tol", tol)
        assert code == 64
        assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("eq3", "--config", "/nonexistent.json", "--grid", "3,3"),
    ("killing", "--fd"),
    ("killing", "--triples", "5"),
    ("killing", "--seed", "1"),
    ("variation", "--fd"),
    ("variation", "--triples", "5"),
])
def test_verify_rejects_unused_options(capsys, argv):
    with pytest.raises(SystemExit):
        cli.main(["verify", *argv])
    capsys.readouterr()


def test_verify_writes_config_outputs(tmp_path, capsys):
    json_path, text_path = tmp_path / "killing.json", tmp_path / "killing.txt"
    cfg = {
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
        "grid": {"points_per_axis": [4, 6]},
        "outputs": [{"format": "json", "path": str(json_path)},
                    {"format": "text", "path": str(text_path)}],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "verify", "killing", "--config", str(path))
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["kind"] == "killing" and report["passed"] is True
    assert "seed" not in report
    assert text_path.read_text() == out


def test_verify_rejects_a_csv_output_before_the_run(tmp_path, capsys):
    json_path = tmp_path / "killing.json"
    cfg = {
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
        "grid": {"points_per_axis": [4, 6]},
        "outputs": [{"format": "json", "path": str(json_path)},
                    {"format": "csv", "path": str(tmp_path / "killing.csv")}],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "verify", "killing", "--config", str(path))
    assert code == 64
    assert json.loads(err)["error"]["type"] == "ConfigError"
    # the check never ran, so no passing report was printed or written
    assert out == ""
    assert not json_path.exists()


def test_an_error_report_reaches_every_json_output(tmp_path, capsys):
    config_json, out_json = tmp_path / "config-report.json", tmp_path / "report.json"
    for path in (config_json, out_json):
        path.write_text('{"passed": true}\n')  # a stale report of an earlier run
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "timelike_plane"},
        "grid": {"points_per_axis": [4, 4]},
        "outputs": [{"format": "json", "path": str(config_json)}],
    }))
    code, out, err = run(capsys, "classify", "--config", str(path),
                         "--out-json", str(out_json))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "NotSpacelike"
    assert config_json.read_text() == err
    assert out_json.read_text() == err


def test_an_error_removes_stale_csv_and_text_outputs(tmp_path, capsys):
    out_json, out_csv, out_text = (tmp_path / f"s.{ext}" for ext in ("json", "csv", "txt"))
    out_csv.write_text("stale,csv\n")
    out_text.write_text("stale text\n")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "timelike_plane"},
        "grid": {"points_per_axis": [4, 4]},
        "outputs": [{"format": "text", "path": str(out_text)}],
    }))
    code, _, err = run(capsys, "classify", "--config", str(path),
                       "--out-json", str(out_json), "--out-csv", str(out_csv))
    assert code == 1
    assert out_json.read_text() == err
    assert not out_csv.exists() and not out_text.exists()


@pytest.mark.parametrize("argv", [("--fd", "--seed", str(seed))
                                  for seed in (20, 54, 64, 79, 132, 149)]
                         + [("--seed", "288")])
def test_eq3_seeds_near_poles_pass(capsys, argv):
    code, out, _ = run(capsys, "verify", "eq3", *argv)
    assert code == 0, out


def _count_report_bodies(monkeypatch):
    calls = {"to_json": 0, "to_csv": 0, "float_reprs": 0}
    for name in ("to_json", "to_csv"):
        original = getattr(ClassificationReport, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ClassificationReport, name, counted)
    original_reprs = extrinsic._float_reprs

    def counted_reprs(col):
        calls["float_reprs"] += 1
        return original_reprs(col)

    monkeypatch.setattr(extrinsic, "_float_reprs", counted_reprs)
    return calls


def test_classify_builds_report_bodies_only_when_asked(tmp_path, monkeypatch, capsys):
    calls = _count_report_bodies(monkeypatch)
    code, out, _ = run(capsys, "classify", "--embedding", "round_sphere", "--grid", "4,4")
    assert code == 0 and "verdict:" in out
    assert calls == {"to_json": 0, "to_csv": 0, "float_reprs": 0}

    config_json, out_json = tmp_path / "config-report.json", tmp_path / "report.json"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "grid": {"points_per_axis": [4, 4]},
        "outputs": [{"format": "json", "path": str(config_json)}],
    }))
    code, _, _ = run(capsys, "classify", "--config", str(path),
                     "--out-json", str(out_json))
    assert code == 0
    # u1, u2, h_norm2 and margin, each formatted once
    assert calls == {"to_json": 1, "to_csv": 0, "float_reprs": 4}
    assert config_json.read_bytes() == out_json.read_bytes()

    # the JSON and CSV outputs share the formatted cells
    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, "classify", "--config", str(path),
                     "--out-json", str(out_json), "--out-csv", str(out_csv))
    assert code == 0
    assert calls == {"to_json": 2, "to_csv": 1, "float_reprs": 8}

    # in codimension 1 theta is a fifth float column: 3 u axes + 3
    code, _, _ = run(capsys, "classify", "--embedding", "t_const_hypersurface_rw",
                     "--grid", "2,2,2", "--out-json", str(out_json),
                     "--out-csv", str(out_csv))
    assert code == 0
    assert calls == {"to_json": 3, "to_csv": 2, "float_reprs": 14}


@pytest.mark.parametrize("argv, fmt, path", [
    (("classify", "--embedding", "round_sphere", "--grid", "4,4",
      "--out-csv", "/nonexistent/x.csv"), "CSV", "/nonexistent/x.csv"),
    (("classify", "--embedding", "round_sphere", "--grid", "4,4",
      "--out-json", "TMP"), "JSON", "TMP"),
    (("verify", "eq3", "--triples", "5", "--out-json", "/nonexistent/r.json"),
     "JSON", "/nonexistent/r.json"),
])
def test_an_unwritable_output_is_a_config_error(tmp_path, capsys, argv, fmt, path):
    # TMP is a directory, which cannot be opened as a file
    argv = [str(tmp_path) if a == "TMP" else a for a in argv]
    path = str(tmp_path) if path == "TMP" else path
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert fmt in report["error"]["message"] and path in report["error"]["message"]


def test_two_formats_on_one_path_are_a_config_error(tmp_path, monkeypatch, capsys):
    def no_runs(*args, **kwargs):
        raise AssertionError("the classification ran")

    shared = tmp_path / "report.out"
    argv = ("classify", "--embedding", "round_sphere", "--grid", "4,4")
    monkeypatch.setattr(cli, "classify_submanifold", no_runs)
    code, out, err = run(capsys, *argv, "--out-json", str(shared), "--out-csv", str(shared))
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert str(shared) in report["error"]["message"]
    assert shared.read_text() == err

    # a config output in another format on a command-line path, given another way
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "outputs": [{"format": "text", "path": str(tmp_path / "." / "report.csv")}],
    }))
    code, out, err = run(capsys, "classify", "--config", str(path),
                         "--out-csv", str(tmp_path / "report.csv"))
    assert code == 64 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"
    monkeypatch.undo()

    # one format on one path twice is allowed
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "grid": {"points_per_axis": [4, 4]},
        "outputs": [{"format": "json", "path": str(shared)}],
    }))
    code, _, _ = run(capsys, "classify", "--config", str(path), "--out-json", str(shared))
    assert code == 0
    assert json.loads(shared.read_text())["kind"] == "classification"


@pytest.mark.parametrize("embedding, other, expected_code", [
    ("round_sphere", None, 0),
    ("timelike_plane", None, 1),
    ("round_sphere", "missing/r.json", 64),
])
def test_outputs_on_a_pipe_leave_the_node_in_place(tmp_path, capsys, embedding, other,
                                                   expected_code):
    # a FIFO stands for a device such as /dev/null: it is no regular file,
    # so it may take both formats and is never removed on the error path
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # an open reader lets each write through without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["classify", "--embedding", embedding, "--grid", "4,4",
                "--out-csv", str(fifo)]
        argv += ["--out-json", str(tmp_path / other if other else fifo)]
        code, _, err = run(capsys, *argv)
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert code == expected_code
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    if expected_code == 0:
        assert err == "" and received.startswith("{") and "}\nu1,u2," in received
    else:
        assert json.loads(err)["kind"] == "error"


@pytest.mark.parametrize("argv, option", [
    (("eq3", "--triples", "0"), "--triples"),
    (("eq3", "--triples", "-2"), "--triples"),
    (("variation", "--pairs", "0"), "--pairs"),
    (("variation", "--pairs", "-3"), "--pairs"),
    (("variation", "--config", "CONFIG", "--pairs", "50"), "--pairs"),
    (("variation", "--config", "CONFIG", "--seed", "7"), "--seed"),
    (("eq3", "--seed", "-1"), "--seed"),
    (("variation", "--seed", "-1"), "--seed"),
])
def test_verify_counts_and_random_options_are_checked(tmp_path, monkeypatch, capsys,
                                                       argv, option):
    def no_runs(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cli.variation, "volume_variation", no_runs)
    monkeypatch.setattr(cli.variation, "identity_sides", no_runs)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
    }))
    argv = [str(path) if a == "CONFIG" else a for a in argv]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert option in report["error"]["message"]


def test_verify_case_keys(tmp_path, capsys):
    killing, variation = tmp_path / "killing.json", tmp_path / "variation.json"
    code, _, _ = run(capsys, "verify", "killing", "--grid", "6,6",
                     "--out-json", str(killing))
    assert code == 0
    code, _, _ = run(capsys, "verify", "variation", "--pairs", "1", "--grid", "6,6",
                     "--out-json", str(variation))
    assert code == 0
    killing, variation = (json.loads(p.read_text()) for p in (killing, variation))
    assert set(killing) == {"schema", "kind", "cases", "passed"}
    for case in killing["cases"]:
        assert set(case) == {"embedding", "field", "lhs", "rhs", "residual", "flux",
                             "psi_sign", "obstruction_ok", "notes", "passed"}
        assert isinstance(case["notes"], list)
    assert set(variation) == {"schema", "kind", "seed", "tau", "cases", "passed"}
    assert variation["seed"] == 0
    (case,) = variation["cases"]
    assert set(case) == {"embedding", "field", "identity_value", "divergence_term",
                         "flow_oracle", "relative_difference", "passed"}
    # a config draws no random pair, so its report has no seed
    path, out_json = tmp_path / "run.json", tmp_path / "config-variation.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
        "grid": {"points_per_axis": [6, 6]},
    }))
    code, _, _ = run(capsys, "verify", "variation", "--config", str(path),
                     "--out-json", str(out_json))
    assert code == 0
    config_variation = json.loads(out_json.read_text())
    assert set(config_variation) == set(variation)
    assert config_variation["seed"] is None


def _inline_sphere_config():
    return {
        "schema_version": 1,
        "metric": {"inline": {
            "coordinates": ["t", "x", "y", "z"],
            "components": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "time_orientation": ["1", "0", "0", "0"],
        }},
        "embedding": {"inline": {
            "parameters": ["u1", "u2"],
            "map": ["0", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)", "R*cos(u1)"],
            "domain": [[0.0, 3.14159], [0.0, 6.28318]],
            "constants": {"R": 2.0},
        }},
    }


def _non_number_constant(cfg):
    cfg["embedding"]["inline"]["constants"] = {"R": "abc"}


def _no_components(cfg):
    del cfg["metric"]["inline"]["components"]


def _asymmetric_metric(cfg):
    cfg["metric"]["inline"]["components"][0][1] = "x"


def _short_domain(cfg):
    del cfg["embedding"]["inline"]["domain"][1]


def _reversed_domain(cfg):
    # a flipped box would flip the sign of every integral over it
    cfg["embedding"]["inline"]["domain"][0] = [3.14159, 0.0]


def _empty_domain(cfg):
    cfg["embedding"]["inline"]["domain"][0] = [0.0, 0.0]


def _tuple_in_map(cfg):
    # every character is allowed, but a tuple is not in the grammar
    cfg["embedding"]["inline"]["map"][1] = "(R, 1)"


# constant-only arithmetic runs in Python numbers at the first evaluation
def _constant_division_by_zero(cfg):
    cfg["embedding"]["inline"]["constants"] = {"R": 1.5}
    cfg["embedding"]["inline"]["map"][0] = "R + 1/(R - 1.5)"


def _constant_zero_power(cfg):
    cfg["embedding"]["inline"]["map"][0] = "R + 0**(-1)"


def _constant_overflow(cfg):
    cfg["embedding"]["inline"]["map"][0] = "R + 10**400"


@pytest.mark.parametrize("mutate", [_non_number_constant, _no_components,
                                    _asymmetric_metric, _short_domain,
                                    _reversed_domain, _empty_domain, _tuple_in_map,
                                    _constant_division_by_zero, _constant_zero_power,
                                    _constant_overflow])
def test_inline_config_errors_are_config_errors(tmp_path, capsys, mutate):
    cfg = _inline_sphere_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 0
    mutate(cfg)
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 64
    assert json.loads(err)["error"]["type"] in ("ConfigError", "InvalidExpression")


def _all_plus_metric(cfg):
    cfg["metric"]["inline"]["components"][0][0] = "1"


def _rw_spacelike_future(cfg):
    # a = t: the comoving r = 5 sphere at t = 2, with x as the "future"
    metric = cfg["metric"]["inline"]
    for i in (1, 2, 3):
        metric["components"][i][i] = "t**2"
    metric["chart_bounds"] = [[0.0, None], [None, None], [None, None], [None, None]]
    metric["time_orientation"] = ["0", "1", "0", "0"]
    cfg["embedding"]["inline"]["constants"] = {"R": 5.0}
    cfg["embedding"]["inline"]["map"][0] = "2"


@pytest.mark.parametrize("mutate, failing", [
    (_all_plus_metric, "negative eigenvalues"),
    (_rw_spacelike_future, "is not timelike"),
])
def test_classification_requires_a_lorentzian_metric_and_timelike_future(
        tmp_path, capsys, mutate, failing):
    cfg = _inline_sphere_config()
    mutate(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "NotLorentzian"
    # every node fails, so the message names the grid's first one
    domain = cfg["embedding"]["inline"]["domain"]
    first = grid_nodes(domain, (False, False), GridSpec((4, 4)))[0][0]
    assert failing in error["message"] and f"u={first}" in error["message"]


def test_rw_sphere_with_a_timelike_future_is_classified(tmp_path, capsys):
    cfg = _inline_sphere_config()
    _rw_spacelike_future(cfg)
    cfg["metric"]["inline"]["time_orientation"] = ["1", "0", "0", "0"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 0
    assert "verdict:   PastTrapped" in out


def _no_time_orientation(cfg):
    del cfg["metric"]["inline"]["time_orientation"]


def _signature_key(cfg):
    cfg["metric"]["inline"]["signature"] = [-1, 1, 1, 1]


@pytest.mark.parametrize("mutate, message", [
    (_no_time_orientation, "no time orientation"),
    (_signature_key, "unknown key(s) ['signature']"),
])
def test_classification_metric_declarations_are_config_errors(tmp_path, capsys,
                                                              mutate, message):
    cfg = _inline_sphere_config()
    mutate(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert (code, out) == (64, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and message in error["message"]


def _non_finite_metric(cfg):
    cfg["metric"]["inline"]["components"][1][1] = "sqrt(x)"


def _non_finite_map(cfg):
    cfg["embedding"]["inline"]["map"] = ["0", "sqrt(u1 - 1)", "u2", "0"]
    cfg["embedding"]["inline"]["domain"] = [[0.0, 2.0], [0.0, 1.0]]


def _non_finite_metric_derivative(cfg):
    # g is finite on the plane t = z = 0, but d_x g is 0/0 at its x = 0 nodes
    cfg["metric"]["inline"]["components"][1][1] = "1 + exp(-1/x**2)"
    cfg["embedding"]["inline"]["map"] = ["0", "u1", "u2", "0"]
    cfg["embedding"]["inline"]["domain"] = [[-1.0, 1.0], [-1.0, 1.0]]


@pytest.mark.parametrize("mutate, error", [
    (_non_finite_metric, "DegenerateMetric"),
    (_non_finite_map, "PointOutsideChart"),
    (_non_finite_metric_derivative, "DerivativeFailure"),
])
def test_non_finite_geometry_is_a_numerical_failure(tmp_path, capsys, mutate, error):
    cfg = _inline_sphere_config()
    mutate(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out_json, out_csv = tmp_path / "report.json", tmp_path / "report.csv"
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "3,3",
                         "--out-json", str(out_json), "--out-csv", str(out_csv))
    assert code == 1
    assert json.loads(err)["error"]["type"] == error
    assert json.loads(out_json.read_text()) == json.loads(err)
    assert not out_csv.exists()
    assert "NaN" not in out + err


@pytest.mark.parametrize("metric", [
    {"catalog": "schwarzschild_ef", "params": {"mass": 1}},   # its own ambient
    {"catalog": "schwarzschild_ef", "params": {"mass": 2}},
    _inline_sphere_config()["metric"],
])
def test_a_catalog_embedding_brings_its_own_metric(tmp_path, capsys, metric):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "metric": metric,
                                "embedding": {"catalog": "ef_sphere",
                                              "params": {"radius": 3}}}))
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert "brings its own metric" in report["error"]["message"]


def test_classify_has_no_metric_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--embedding", "ef_sphere:radius=3",
                  "--metric", "schwarzschild_ef:mass=1", "--grid", "4,4"])
    assert exc.value.code == 2
    assert "--metric" in capsys.readouterr().err


@pytest.mark.parametrize("metric, chart_map, verdict", [
    (None, None, "AbsolutelyNonTrapped"),   # the inline flat metric
    # the sphere r = R = 2 lies inside the horizon r = 2M = 4
    ({"catalog": "schwarzschild_ef", "params": {"mass": 2}}, ["0", "R", "u1", "u2"],
     "FutureTrapped"),
])
def test_an_inline_embedding_classifies_in_its_given_metric(tmp_path, capsys, metric,
                                                           chart_map, verdict):
    cfg = _inline_sphere_config()
    cfg["metric"] = metric or cfg["metric"]
    cfg["embedding"]["inline"]["map"] = chart_map or cfg["embedding"]["inline"]["map"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 0
    assert f"verdict:   {verdict}" in out


def test_classify_rejects_config_fields(tmp_path, capsys):
    # classify builds no field, so even a malformed one would pass unread
    cfg = {**_inline_sphere_config(),
           "fields": [{"inline": {"components": ["1", "0", "0"]}}]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "classify", "--config", str(path), "--grid", "4,4")
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert "'fields'" in report["error"]["message"]


@pytest.mark.parametrize("check", ["killing", "variation"])
def test_verify_rejects_config_tolerances(tmp_path, capsys, check):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
        "grid": {"points_per_axis": [4, 6]},
        "tolerances": {"null_band": 1e-8},
    }))
    code, out, err = run(capsys, "verify", check, "--config", str(path))
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert "'tolerances'" in report["error"]["message"]


def test_config_grid_with_wrong_axis_count_is_config_error(tmp_path, capsys):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "t_const_hypersurface_rw"},
        "grid": {"points_per_axis": [2, 2]},
    }))
    code, _, err = run(capsys, "classify", "--config", str(path))
    assert code == 64
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert "2 axes" in report["error"]["message"]
    # without a grid the 16-per-axis default applies to every axis
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "t_const_hypersurface_rw"},
    }))
    code, out, _ = run(capsys, "classify", "--config", str(path))
    assert code == 0
    assert "grid:      16x16x16" in out


def test_catalog_commands(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "round_sphere" in out and "schwarzschild_ef" in out

    code, out, _ = run(capsys, "catalog", "show", "ef_sphere")
    assert code == 0
    assert "radius" in out and "expected results" in out

    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 65
    assert json.loads(err)["error"]["type"] == "UnknownEntry"

    code, _, err = run(capsys, "catalog", "show")
    assert code == 64

    code, out, err = run(capsys, "catalog", "list", "ef_sphere")
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_verify_eq3(tmp_path, capsys):
    out_json = tmp_path / "eq3.json"
    code, out, _ = run(capsys, "verify", "eq3", "--triples", "20",
                       "--out-json", str(out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["kind"] == "eq3"
    assert report["passed"] is True
    assert report["max_residual"] < 1e-6


def test_verify_eq3_builds_one_bundle_per_triple(monkeypatch, capsys):
    blocks = []
    induced_block = Embedding.induced_block

    def counted(self, us):
        blocks.append(len(us))
        return induced_block(self, us)

    monkeypatch.setattr(Embedding, "induced_block", counted)
    code, _, _ = run(capsys, "verify", "eq3", "--triples", "50")
    assert code == 0
    assert blocks == [1] * 50


def test_verify_eq3_finite_difference(capsys):
    code, out, _ = run(capsys, "verify", "eq3", "--triples", "20", "--fd")
    assert code == 0
    assert "max residual" in out


def test_verify_killing(tmp_path, capsys):
    out_json = tmp_path / "killing.json"
    code, out, _ = run(capsys, "verify", "killing", "--grid", "16,16",
                       "--out-json", str(out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["passed"] is True
    assert {c["psi_sign"] for c in report["cases"]} == {"positive", "zero"}


def test_verify_killing_rejects_a_field_conformal_only_where_y_vanishes(tmp_path, capsys):
    # Lie_xi g != 0 wherever y != 0 on the sphere, so no Killing verdict holds
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"inline": {"coordinates": ["t", "x", "y", "z"],
                               "components": ["1 + y**2", "0", "0", "0"]}}],
    }))
    code, out, err = run(capsys, "verify", "killing", "--config", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "NotConformal"


def test_verify_variation(tmp_path, capsys):
    out_json = tmp_path / "variation.json"
    code, _, _ = run(capsys, "verify", "variation", "--pairs", "2",
                     "--grid", "12,12", "--out-json", str(out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    assert report["passed"] is True
    for case in report["cases"]:
        assert case["relative_difference"] < 1e-4


@pytest.mark.parametrize("seed", ["4", "41", "95"])
def test_verify_variation_passes_at_the_default_tau(capsys, seed):
    # at tau = 1e-4 these seeds' worst pairs are 2.9e-4 to 4.6e-4 from the
    # identity: the O(tau**2) truncation of the oracle's central difference
    code, out, _ = run(capsys, "verify", "variation", "--seed", seed)
    assert code == 0, out


@pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
def test_verify_variation_rejects_a_bad_tau_before_the_run(monkeypatch, capsys, tau):
    def no_pair_runs(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(cli.variation, "volume_variation", no_pair_runs)
    code, out, err = run(capsys, "verify", "variation", "--pairs", "1", "--tau", tau)
    assert code == 64 and out == ""
    report = json.loads(err)
    assert report["error"]["type"] == "ConfigError"
    assert "--tau" in report["error"]["message"]


def test_verify_variation_flow_leaves_chart(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "embedding": {"catalog": "ef_sphere", "params": {"radius": 1.0}},
        "fields": [{
            "inline": {"coordinates": ["v", "r", "th", "ph"],
                       "components": ["0", "-1", "0", "0"]}
        }],
        "grid": {"points_per_axis": [4, 4]},
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "verify", "variation", "--config", str(path),
                       "--tau", "2.0")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FlowLeftChart"


def test_missing_embedding_is_config_error(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 64
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["killing", "variation"])
def test_verify_uses_the_config_grid(tmp_path, capsys, command):
    cfg = {
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"}],
    }
    reports = {}
    for label, grid, argv in (("config", [4, 6], ()), ("option", None, ("--grid", "4,6")),
                              ("default", None, ())):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({**cfg, "grid": {"points_per_axis": grid}}
                                   if grid else cfg))
        out_json = tmp_path / f"{label}-report.json"
        code, _, _ = run(capsys, "verify", command, "--config", str(path), *argv,
                         "--out-json", str(out_json))
        assert code == 0
        reports[label] = json.loads(out_json.read_text())
    assert reports["config"] == reports["option"]
    assert reports["config"] != reports["default"]

    # a config grid goes through the same axis check as --grid
    path = tmp_path / "three_axes.json"
    path.write_text(json.dumps({**cfg, "grid": {"points_per_axis": [4, 4, 4]}}))
    code, _, err = run(capsys, "verify", command, "--config", str(path))
    assert code == 64
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["killing", "variation"])
def test_inline_field_coordinates_must_match_the_ambient(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "embedding": {"catalog": "round_sphere"},
        "fields": [{"catalog": "dilation"},
                   {"inline": {"coordinates": ["x", "y", "z"],
                               "components": ["x", "y", "z"]}}],
    }))
    code, out, err = run(capsys, "verify", command, "--config", str(path))
    assert (code, out) == (64, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert "fields[1]" in error["message"] and "3 coordinates" in error["message"]


def test_classification_csv_cells_are_numbers(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, "classify", "--embedding", "ef_sphere:radius=1.5",
                     "--grid", "2,4", "--out-csv", str(out_csv))
    assert code == 0
    header, *rows = [line.split(",") for line in out_csv.read_text().splitlines()]
    label = header.index("label")
    assert len(rows) == 8
    for row in rows:
        for k, cell in enumerate(row):
            if k != label:
                float(cell)
