import json
import math

import pytest

from trapsurf.config import (
    RunConfig,
    build_embedding,
    build_fields,
    build_metric,
    load_config,
)
from trapsurf.errors import ConfigError
from trapsurf.quadrature import GridSpec

FULL_CONFIG = {
    "schema_version": 1,
    "metric": {"catalog": "schwarzschild_ef", "params": {"mass": 1.0}},
    "embedding": {"catalog": "ef_sphere", "params": {"radius": 1.5}},
    "fields": [{"catalog": "time_translation"}],
    "grid": {"points_per_axis": [8, 16], "rule": "auto"},
    "tolerances": {"null_band": 1e-8},
    "outputs": [{"format": "json", "path": "out.json"}],
}

INLINE_CONFIG = {
    "schema_version": 1,
    "metric": {
        "inline": {
            "coordinates": ["t", "x", "y", "z"],
            "components": [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "time_orientation": ["1", "0", "0", "0"],
            "name": "inline-mink",
        }
    },
    "embedding": {
        "inline": {
            "parameters": ["u1", "u2"],
            "map": ["0", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)",
                    "R*cos(u1)"],
            "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]],
            "periodic": [False, True],
            "closed": True,
            "constants": {"R": 2.0},
            "name": "inline-sphere",
        }
    },
    "fields": [{
        "inline": {"coordinates": ["t", "x", "y", "z"],
                   "components": ["1", "0", "0", "0"]}
    }],
}


def test_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL_CONFIG))
    cfg = RunConfig.from_dict(FULL_CONFIG)
    assert load_config(path) == cfg
    assert cfg.grid == GridSpec((8, 16), "auto")
    assert cfg.tolerances == {"null_band": 1e-8}


def test_unknown_keys_are_named():
    bad = dict(FULL_CONFIG)
    bad["gird"] = {}
    with pytest.raises(ConfigError, match="gird"):
        RunConfig.from_dict(bad)

    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["embedding"]["inline_extra"] = 1
    with pytest.raises(ConfigError, match="inline_extra"):
        RunConfig.from_dict(bad)

    bad = json.loads(json.dumps(INLINE_CONFIG))
    bad["metric"]["inline"]["chart"] = "x"
    with pytest.raises(ConfigError, match="chart"):
        RunConfig.from_dict(bad)


def test_schema_version_required():
    with pytest.raises(ConfigError, match="schema_version"):
        RunConfig.from_dict({"embedding": {"catalog": "round_sphere"}})


def test_exactly_one_of_catalog_or_inline():
    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["embedding"]["inline"] = {}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema_version": 1, "embedding": {}})


def test_inline_embedding_requires_metric():
    solo = json.loads(json.dumps(INLINE_CONFIG))
    del solo["metric"]
    with pytest.raises(ConfigError, match="metric"):
        RunConfig.from_dict(solo)


def test_tolerance_validation():
    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["tolerances"] = {"nul_band": 1e-8}
    with pytest.raises(ConfigError, match="nul_band"):
        RunConfig.from_dict(bad)
    bad["tolerances"] = {"null_band": 1.0}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad["tolerances"] = {"null_band": "small"}
    with pytest.raises(ConfigError, match="number"):
        RunConfig.from_dict(bad)
    # only null_band is read by any command
    for name in ("conformal", "normal"):
        bad["tolerances"] = {name: 1e-8}
        with pytest.raises(ConfigError, match=name):
            RunConfig.from_dict(bad)


def test_grid_validation():
    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["grid"] = {"points_per_axis": [1, 4]}
    with pytest.raises(ConfigError, match="grid"):
        RunConfig.from_dict(bad)
    bad["grid"] = {"points_per_axis": [8, 8], "rule": "simpson"}
    with pytest.raises(ConfigError, match="grid"):
        RunConfig.from_dict(bad)
    for points in ([4.9, "6"], ["8", "4.5"], [8, None]):
        bad["grid"] = {"points_per_axis": points}
        with pytest.raises(ConfigError, match="integers"):
            RunConfig.from_dict(bad)
    bad["grid"] = {"rule": "gauss"}
    with pytest.raises(ConfigError, match="points_per_axis"):
        RunConfig.from_dict(bad)
    good = json.loads(json.dumps(FULL_CONFIG))
    good["grid"] = {"points_per_axis": ["8", 16.0]}
    assert RunConfig.from_dict(good).grid == GridSpec((8, 16))
    del good["grid"]
    assert RunConfig.from_dict(good).grid is None


def test_catalog_kind_is_checked():
    wrong = json.loads(json.dumps(FULL_CONFIG))
    wrong["embedding"] = {"catalog": "minkowski"}
    with pytest.raises(ConfigError, match="minkowski"):
        build_embedding(RunConfig.from_dict(wrong))
    wrong = json.loads(json.dumps(FULL_CONFIG))
    wrong["metric"] = {"catalog": "round_sphere"}
    with pytest.raises(ConfigError, match="round_sphere"):
        build_metric(RunConfig.from_dict(wrong).metric)
    wrong = json.loads(json.dumps(FULL_CONFIG))
    wrong["fields"] = [{"catalog": "schwarzschild_ef"}]
    cfg = RunConfig.from_dict(wrong)
    with pytest.raises(ConfigError, match="schwarzschild_ef"):
        build_fields(cfg, build_metric(cfg.metric))


def test_output_validation():
    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["outputs"] = [{"format": "yaml", "path": "x"}]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad["outputs"] = [{"format": "json"}]
    with pytest.raises(ConfigError, match="path"):
        RunConfig.from_dict(bad)


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(garbled)


def test_build_catalog_pipeline():
    cfg = RunConfig.from_dict(FULL_CONFIG)
    metric = build_metric(cfg.metric)
    assert metric.dim == 4
    emb = build_embedding(cfg)
    assert emb.dim == 2 and emb.closed
    fields = build_fields(cfg, emb.ambient)
    assert len(fields) == 1 and fields[0].name == "time_translation"


def test_build_inline_pipeline():
    cfg = RunConfig.from_dict(INLINE_CONFIG)
    emb = build_embedding(cfg)
    assert emb.name == "inline-sphere"
    assert emb.volume(GridSpec((16, 16))) == pytest.approx(16.0 * math.pi,
                                                           rel=1e-9)
    fields = build_fields(cfg, emb.ambient)
    assert len(fields) == 1
    assert list(fields[0].at([0, 0, 0, 0])) == [1.0, 0.0, 0.0, 0.0]
