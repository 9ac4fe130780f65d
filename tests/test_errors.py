"""The one value-kind check: its boundaries, parse-time / build-time parity
over every numeric and boolean schema key and over a topology's key lists,
and a guard against a second vocabulary."""

import ast
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from zojade import (
    ConfigurationError,
    ExperimentConfig,
    quartic_instance,
    ridge_instance_from_shards,
    ridge_synthetic,
    separable_quadratic_instance,
    synthetic_classification,
    topology_from_spec,
)
from zojade.errors import (
    BOOL, FILE_NAME, INT, INTS, KINDS, LIST, NONNEG, NUM, OBJECT, PAIR, PATH, POS_INT, POS_NUM,
    PROB, SEEDS, require,
)
from zojade.algorithms import CONFIG_CLASS, JadeConfig
from zojade.harness import _ALGORITHM_SCHEMAS, _INSTANCE_SCHEMAS, _TOPOLOGY_SCHEMAS
from zojade.objectives import CONFIG_KEYS, FAMILIES

nan, inf = math.nan, math.inf

# --- require's boundaries ---------------------------------------------------------

ACCEPTED = {
    INT: [0, -3, 2**70],
    POS_INT: [1, 2**70],
    NUM: [0, -1.5, 1e308, np.float64(2.0)],
    PROB: [1, 1.0, 5e-324, np.float64(0.5)],
    POS_NUM: [5e-324, 1, 1e308],
    NONNEG: [0, 0.0, -0.0, 3],
    BOOL: [True, False],
    PATH: ["a", "data/x.csv", " "],
    PAIR: [[0.5, 4], (1, 2.0)],
    SEEDS: [[0], [3, -1, 2**70]],
    FILE_NAME: ["a", "a.b", "...", "-", "a b", "\u00e9\u2013\u0080"],
    OBJECT: [{}, {"a": 1}],
    LIST: [[0], [None, "a"]],
    INTS: [[], [0, -3], [(0, 1), (1, 2)], [np.int64(1), 2], np.array([2, 3], dtype=np.int32),
           np.array([[0, 1]], dtype=np.uint8)],
}

REJECTED = {
    INT: [1.0, True, False, np.int64(1), "1", None],
    POS_INT: [0, -1, 1.0, True, np.int64(2), np.uint8(1)],
    NUM: [nan, inf, -inf, True, np.float32(1.0), np.int64(1), "1", None, 10**400, -10**400],
    PROB: [0, 0.0, -1e-300, 1.0000000000000002, nan, inf, True, 10**400, -10**400],
    POS_NUM: [0, 0.0, -0.0, -1, nan, inf, True, np.float32(0.5), 10**400, -10**400],
    NONNEG: [-5e-324, -1, nan, -inf, inf, False, 10**400, -10**400],
    BOOL: [0, 1, "true", None, np.bool_(True)],
    PATH: ["", "a\0b", b"a", None, 0],
    PAIR: [[1.0], [1, 2, 3], [nan, 1], [1, inf], [True, 2], [np.int64(1), 2], "12", None,
           [10**400, 1]],
    SEEDS: [[], [1, 1], [1, True], [1.0], [np.int64(1)], (1, 2), 1, None],
    FILE_NAME: ["", ".", "..", "a/b", "a\\b", "a\0b", "a\nb", "a\rb", "\tb", "a\x1f", "a\x7fb",
                ["a"], None],
    OBJECT: [[], [("a", 1)], "a", None],
    LIST: [[], (1,), {"a": 1}, "a", None],
    INTS: [[0.5, 1], [(True, 2), (0, 2)], [np.bool_(True), 1], [True, False], np.array([True]),
           np.zeros(2), np.array([1, 2], dtype=object), "12", None],
}


def test_every_kind_has_boundary_cases():
    assert set(ACCEPTED) == set(REJECTED) == set(KINDS)


@pytest.mark.parametrize(
    "kind, value", [(k, v) for k, vs in ACCEPTED.items() for v in vs], ids=repr
)
def test_require_accepts(kind, value):
    require(kind, x=value)


@pytest.mark.parametrize(
    "kind, value", [(k, v) for k, vs in REJECTED.items() for v in vs], ids=repr
)
def test_require_rejects_and_names_the_value(kind, value):
    with pytest.raises(ConfigurationError) as caught:
        require(kind, x=value)
    assert str(caught.value) == f"x must be {kind}, got {value!r}"


def test_require_names_the_first_bad_value_in_order():
    require(POS_INT)  # nothing to check
    with pytest.raises(ConfigurationError, match=r"^b must be a positive integer, got 0$"):
        require(POS_INT, a=1, b=0, c=-1)


# --- parse time and build time reject the same values -----------------------------

# Values outside every numeric kind, then the out-of-range values each kind rules out.
_ALWAYS_BAD = [nan, inf, -inf, True, np.int64(1)]
_OUT_OF_RANGE = {
    INT: [1.5],
    POS_INT: [0, -1, 2.5],
    NUM: [],
    PROB: [0.0, -0.5, 1.5],
    POS_NUM: [0.0, -1.0],
    NONNEG: [-1.0],
}
_BAD_PAIRS = [[1.0], [nan, 4.0], [0.5, inf], [-inf, 4.0], [True, 4.0], [np.int64(1), 4.0]]

_ROWS = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, -1.0], [-1.0, 0.5], [0.5, 2.0]])
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

#: family -> valid values of its required config keys
_REQUIRED = {
    "separable_quadratic": {"d": 2, "seed": 1},
    "ridge_synthetic": {"d": 2, "per_agent": 3, "seed": 1},
    "synthetic_classification": {"d": 3, "per_agent": 4, "seed": 1},
    "ridge_csv": {"path": "data.csv"},
    "logistic_csv": {"path": "data.csv"},
    "quartic": {},
}


def _build(tmp_path, family, params):
    """FAMILIES' build of `family` for 3 agents from the config keys `params`;
    a `path` names a CSV of _ROWS and _SIGNS written to `tmp_path`."""
    if "path" in params:
        data = tmp_path / params["path"]
        np.savetxt(data, np.column_stack([_ROWS, _SIGNS]), delimiter=",")
        params = {**params, "path": str(data)}
    return FAMILIES[family][0](n=3, **params)


def test_every_family_has_required_values():
    assert set(_REQUIRED) == set(FAMILIES)
    for family, required in _REQUIRED.items():
        assert set(required) == set(FAMILIES[family][1])


def _bad_values(kind):
    return _BAD_PAIRS if kind == PAIR else _ALWAYS_BAD + _OUT_OF_RANGE[kind]


def _numeric_keys(schemas):
    for tag, (required, optional) in schemas.items():
        for key, kind in {**required, **optional}.items():
            if kind not in (BOOL, PATH, FILE_NAME):
                yield tag, key, kind


def _cases(schemas):
    return [
        pytest.param(tag, key, value, id=f"{tag}.{key}={value!r}")
        for tag, key, kind in _numeric_keys(schemas)
        for value in _bad_values(kind)
    ]


def _config(topology, instance):
    return {
        "topology": topology,
        "instance": instance,
        "mu": 0.05,
        "budget": 70,
        "seeds": [1],
        "algorithms": [{"name": "zo_jade"}],
    }


@pytest.mark.parametrize("name, key, value", _cases(_TOPOLOGY_SCHEMAS))
def test_topology_parse_and_build_reject_the_same_values(name, key, value):
    spec = {"n": 4, **({"p": 0.9, "seed": 1} if name == "erdos_renyi" else {}), key: value}
    with pytest.raises(ConfigurationError, match=rf"^topology\.{key} must be"):
        ExperimentConfig(_config({"name": name, **spec}, {"family": "quartic"}))
    with pytest.raises(ConfigurationError, match=f"^{key} must be"):
        topology_from_spec(name, spec.pop("n"), **spec)


@pytest.mark.parametrize("spec, keys", [
    ({"name": "ring", "n": 4, "p": 0.5}, r"unknown keys \['p'\]"),
    ({"name": "erdos_renyi", "n": 4, "p": 0.5}, r"missing required keys \['seed'\]"),
], ids=["unknown", "missing"])
def test_topology_parse_and_build_name_the_same_keys(spec, keys):
    # one check of the keys, so a config entry and a direct call agree word for word
    message = rf"^topology\[{spec['name']}\]: {keys}$"
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(_config(spec, {"family": "quartic"}))
    with pytest.raises(ConfigurationError, match=message):
        topology_from_spec(**spec)


@pytest.mark.parametrize("family, key, value", _cases(_INSTANCE_SCHEMAS))
def test_instance_parse_and_build_reject_the_same_values(tmp_path, family, key, value):
    params = {**_REQUIRED[family], key: value}
    with pytest.raises(ConfigurationError, match=rf"^instance\.{key} must be"):
        ExperimentConfig(_config({"name": "ring", "n": 3}, {"family": family, **params}))
    name = next((name for name, config_key in CONFIG_KEYS.items() if config_key == key), key)
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        _build(tmp_path, family, params)


_BAD_FLAGS = [0, 1, "no", None, np.bool_(True)]


@pytest.mark.parametrize("family, key, value", [
    pytest.param(family, key, value, id=f"{family}.{key}={value!r}")
    for family, (required, optional) in _INSTANCE_SCHEMAS.items()
    for key, kind in {**required, **optional}.items() if kind == BOOL
    for value in _BAD_FLAGS
])
def test_instance_parse_and_build_reject_the_same_flags(tmp_path, family, key, value):
    # a builder once took any truthy value: "no" standardized the data or skipped a row
    params = {**_REQUIRED[family], key: value}
    with pytest.raises(ConfigurationError, match=rf"^instance\.{key} must be a boolean, got "):
        ExperimentConfig(_config({"name": "ring", "n": 3}, {"family": family, **params}))
    with pytest.raises(ConfigurationError, match=f"^{key} must be a boolean, got {value!r}$"):
        _build(tmp_path, family, params)


@pytest.mark.parametrize("name, key, value", _cases(_ALGORITHM_SCHEMAS))
def test_algorithm_entry_and_config_class_reject_the_same_values(name, key, value):
    config = _config({"name": "ring", "n": 3}, {"family": "quartic"})
    with pytest.raises(ConfigurationError, match=rf"^algorithms\.{key} must be"):
        ExperimentConfig(config | {"algorithms": [{"name": name, key: value}]})
    with pytest.raises(ConfigurationError, match=f"^{key} must be"):
        CONFIG_CLASS[name](**{"mu": 0.05, key: value})


def test_every_run_config_field_declares_a_kind():
    for cls in set(CONFIG_CLASS.values()):
        assert all(f.metadata.get("kind") in KINDS for f in fields(cls)), cls

    @dataclass
    class Undeclared(JadeConfig):
        extra: float = 1.0

    with pytest.raises(KeyError, match="kind"):
        Undeclared(mu=0.05)


# --- inputs that slipped past the old checks ---------------------------------------


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: ridge_synthetic(3, 4, 2, seed=1, lam=inf), "lam"),
        (lambda: ridge_synthetic(3, 4, 2, seed=1, scale_spread=inf), "scale_spread"),
        (lambda: ridge_instance_from_shards(_ROWS, _SIGNS, 2, lam=inf), "lam"),
        (lambda: synthetic_classification(3, 4, 2, seed=1, w=inf), "w"),
        (lambda: quartic_instance(2, quad=inf), "quad"),
        (lambda: quartic_instance(2, box=inf), "box"),
        (lambda: topology_from_spec("erdos_renyi", 4, p=0.9, seed=np.int64(1)), "seed"),
        (lambda: separable_quadratic_instance(3, 2, seed=np.int64(1)), "seed"),
        (lambda: ExperimentConfig(_config({"name": "ring", "n": 3}, {"family": "quartic"})
                                  | {"budget": np.int64(70)}), "budget"),
        (lambda: ExperimentConfig(_config({"name": "ring", "n": 3}, {"family": "quartic"})
                                  | {"mu": np.float32(0.05)}), "mu"),
    ],
    ids=["ridge_lam", "ridge_spread", "shards_lam", "classification_w", "quartic_quad",
         "quartic_box", "erdos_renyi_seed", "separable_seed", "config_budget", "config_mu"],
)
def test_drifted_inputs_raise_a_configuration_error_naming_the_parameter(build, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        build()


def test_float64_still_counts_as_a_number():
    cfg = ExperimentConfig(
        _config({"name": "ring", "n": 3}, {"family": "quartic", "box": np.float64(2.0)})
        | {"mu": np.float64(0.05)}
    )
    assert cfg.data["mu"] == 0.05


# --- one vocabulary ------------------------------------------------------------------


def test_only_errors_module_tests_a_value_kind():
    found = []
    for path in sorted(Path(__file__).parents[1].glob("src/zojade/*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
                found.append(f"{path.name}:{node.lineno}: import numbers")
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append(f"{path.name}:{node.lineno}: from numbers import")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1])
                )
            ):
                found.append(f"{path.name}:{node.lineno}: isinstance(..., bool)")
    assert found == []
