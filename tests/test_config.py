import ast
import json
import pathlib
import re

import pytest

from deskml import config as C


def write(tmp_path, text, name="cfg.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_and_dotted_lookup(tmp_path):
    path = write(tmp_path, '{"model": {"name": "fully_connected_classification"}}')
    cfg = C.load_config(path)
    assert cfg.get("model.name") == "fully_connected_classification"


def test_empty_file_is_empty_config(tmp_path):
    cfg = C.load_config(write(tmp_path, ""))
    assert cfg.to_dict() == {}


def test_parse_error_names_location(tmp_path):
    path = write(tmp_path, '{\n  "a": {"b": 1,}\n}')
    with pytest.raises(C.ConfigError, match=r":2:"):
        C.load_config(path)


@pytest.mark.parametrize("text", ['{"optimizer": {"lr": 0.5, "lr": 0.001}}',
                                  '{"lr": 0.5, "model": {}, "lr": 0.5}'],
                         ids=["nested", "top_level"])
def test_duplicate_key_names_the_key_and_file(tmp_path, text):
    # json.loads keeps the last value, so the first was silently dropped
    path = write(tmp_path, text)
    with pytest.raises(C.ConfigError, match=f"^{re.escape(path)}: duplicate key 'lr'$"):
        C.load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(C.ConfigError, match="not found"):
        C.load_config(str(tmp_path / "nope.json"))


@pytest.mark.parametrize("make", ["directory", "not_utf8"])
def test_unreadable_file_is_a_config_error(tmp_path, make):
    path = tmp_path / "cfg.json"
    if make == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(C.ConfigError, match="cannot read config file") as info:
        C.load_config(str(path))
    assert str(path) in str(info.value)


def test_missing_required_key():
    cfg = C.Config({"a": {}})
    with pytest.raises(C.ConfigError, match="missing config key 'a.b'$"):
        cfg.require("a.b.c")
    assert cfg.get("zzz", 5) == 5


@pytest.mark.parametrize("values, path, key", [
    ({"a": 1}, "a.b.c", "a"),
    ({"optimizer": 5}, "optimizer.lr", "optimizer"),
    ({"topology": [2]}, "topology.host_count", "topology"),
    ({"a": {"b": "x"}}, "a.b.c", "a.b"),
])
def test_get_refuses_a_non_map_above_the_path(values, path, key):
    # not a fall back to the default, with or without one
    cfg = C.Config(values)
    for read in (lambda: cfg.get(path, 1), lambda: cfg.require(path)):
        with pytest.raises(C.ConfigError, match=f"^config key '{key}' must be a "
                                                f"JSON map to hold '{path}', got "):
            read()


@pytest.mark.parametrize("value, default, kind", [
    (True, 1, "an int"),  # a bool is not an int
    (1, False, "a bool"),
    (3, 0.5, None),  # an int fits a float default, and stays an int
    (0.5, 3, "an int"),
    (None, 0.5, "a number"),  # a null fits nothing
    ([3], 3, "an int"),
    (3, [3], "a JSON list"),
    ("0.5", 0.5, "a number"),
    ({"c": 1}, "x", "a string"),
    ("x", None, None),  # a read with no default takes any value
])
def test_get_refuses_a_value_unlike_its_default(value, default, kind):
    cfg = C.Config({"a": {"b": value}})
    if kind is None:
        assert cfg.get("a.b", default) == value
        assert type(cfg.get("a.b", default)) is type(value)
        assert cfg.require("a.b") == value
    else:
        with pytest.raises(C.ConfigError,
                           match=f"config key 'a.b' must be {kind}, got "):
            cfg.get("a.b", default)


@pytest.mark.parametrize("value, default, within, got", [
    (1, 4, "[1, inf)", None),  # each closed end takes its bound
    (0, 4, "[1, inf)", "0"),
    (0.0, 0.5, "[0, 1)", None),
    (1.0, 0.5, "[0, 1)", "1.0"),  # an open end refuses its bound
    (1, 0.5, "[0, 1]", None),
    (0.0, 0.5, "(0, 1]", "0.0"),
    (1e-9, 0.5, "(0, 1]", None),
    (1.5, 0.5, "[0, 1]", "1.5"),
    (float("nan"), 0.5, "[0, 1)", "nan"),  # NaN lies outside every interval
    (float("nan"), 0.5, "[0, inf)", "nan"),
    ([3, 1], [64], "[1, inf)", None),
    ([3, 0], [64], "[1, inf)", "0 in [3, 0]"),  # every element is checked
    ([], [64], "[1, inf)", None),
])
def test_get_refuses_a_value_outside_within(value, default, within, got):
    cfg = C.Config({"a": {"b": value}})
    if got is None:
        assert cfg.get("a.b", default, within=within) == value
    else:
        with pytest.raises(C.ConfigError) as info:
            cfg.get("a.b", default, within=within)
        assert str(info.value) == f"config key 'a.b' must be in {within}, got {got}"


@pytest.mark.parametrize("value, default, kind", [
    ([3, 2.5], [64], "an int"), ([3, "a"], [64], "an int"), ([True], [64], "an int"),
    ([[1, "a"]], [[1]], "a JSON list with each element an int")])
def test_get_refuses_a_list_element_unlike_the_defaults_first(value, default, kind):
    cfg = C.Config({"a": {"b": value}})
    with pytest.raises(C.ConfigError, match=re.escape(
            f"'a.b' must be a JSON list with each element {kind}, got {value!r}")):
        cfg.get("a.b", default, within="[1, inf)")


def test_override_basic():
    cfg = C.Config({"lr": 0.1})
    out = C.override(cfg, ["lr=0.01"])
    assert out.get("lr") == 0.01
    assert cfg.get("lr") == 0.1  # original untouched


def test_override_empty_is_identity():
    cfg = C.Config({"a": {"b": 2}})
    assert C.override(cfg, []) == cfg


def test_override_int_leaf():
    cfg = C.Config({"model": {"hidden": 32}})
    assert C.override(cfg, ["model.hidden=64"]).get("model.hidden") == 64


def test_override_type_clash():
    cfg = C.Config({"n": 3})
    with pytest.raises(C.ConfigError, match="cannot parse"):
        C.override(cfg, ["n=hello"])


def test_override_list_leaf():
    cfg = C.Config({"dataset": {"input_shape": [8, 8, 1]}})
    out = C.override(cfg, ["dataset.input_shape=[4, 4, 3]"])
    assert out.get("dataset.input_shape") == [4, 4, 3]


@pytest.mark.parametrize("text", ["[8,8", "7", '"8x8"', '{"h": 8}', "null"])
def test_override_list_leaf_rejects_a_non_list(text):
    cfg = C.Config({"dataset": {"input_shape": [8, 8, 1]}})
    with pytest.raises(C.ConfigError, match="as a JSON list"):
        C.override(cfg, [f"dataset.input_shape={text}"])


def test_override_unknown_key_needs_plus():
    cfg = C.Config({})
    with pytest.raises(C.ConfigError, match="unknown config key"):
        C.override(cfg, ["new.key=1"])
    assert C.override(cfg, ["+new.key=1"]).get("new.key") == 1


@pytest.mark.parametrize("values, item, what", [
    ({"dataset": {"name": "x"}}, "dataset=7", "a map with a non-map"),
    ({"dataset": {"name": "x"}}, "dataset=null", "a map with a non-map"),
    ({"optimizer": {"grad_clip": None}}, 'optimizer.grad_clip={"a": 1}',
     "a leaf with a map"),
])
def test_override_keeps_maps_and_leaves_apart(values, item, what):
    cfg = C.Config(values)
    key = item.split("=")[0]
    with pytest.raises(C.ConfigError, match=f"'{key}': an override cannot replace {what}"):
        C.override(cfg, [item])
    # + replaces either
    assert C.override(cfg, ["+" + item]).get(key) == json.loads(item.split("=", 1)[1])


@pytest.mark.parametrize("leaf, text, value", [
    (False, "TRUE", True), (True, "0", False), (3, " 7", 7), (0.5, "2", 2.0),
    ("x", "007", "007"), (None, "1.5", 1.5), (None, "abc", "abc"),
])
def test_override_reads_its_text_for_the_leaf(leaf, text, value):
    out = C.override(C.Config({"k": leaf}), [f"k={text}"]).get("k")
    assert out == value and type(out) is type(value)


@pytest.mark.parametrize("leaf, text, kind", [
    (False, "yes", "a bool"), (3, "2.0", "an int"), (0.5, "x", "a number"),
])
def test_override_refuses_text_unlike_its_leaf(leaf, text, kind):
    with pytest.raises(C.ConfigError, match=f"'k': cannot parse '{text}' as {kind}$"):
        C.override(C.Config({"k": leaf}), [f"k={text}"])


@pytest.mark.parametrize("values, item", [
    ({"optimizer": {"lr": 0.5}}, 'optimizer={"lr": 0.5, "lr": 0.001}'),  # a map leaf
    ({"k": None}, 'k={"a": [{"lr": 1, "lr": 2}]}'),  # a null leaf reads JSON
    ({}, '+k={"lr": 1, "lr": 2}'),  # a new key
    ({"k": [{}]}, 'k=[{"lr": 1, "lr": 2}]'),  # a list leaf
], ids=["map_leaf", "null_leaf", "new_key", "list_leaf"])
def test_override_refuses_a_duplicate_key(values, item):
    # the refusal is a ConfigError, not text that does not parse
    with pytest.raises(C.ConfigError,
                       match=f"^override {re.escape(repr(item))}: duplicate key 'lr'$"):
        C.override(C.Config(values), [item])


def test_override_bool_leaf():
    cfg = C.Config({"flag": False})
    assert C.override(cfg, ["flag=true"]).get("flag") is True


def test_serialization_round_trip(tmp_path):
    cfg = C.Config({"a": {"b": [1, 2, 3], "c": "x"}, "d": 1.5})
    path = write(tmp_path, C.dumps(cfg))
    assert C.load_config(path) == cfg


def test_with_defaults_adds_only_missing_keys_after_the_callers():
    cfg = C.Config({"model": {"name": "m"}, "dataset": {"size": 4}})
    merged = cfg.with_defaults({"dataset": {"name": "d", "size": 8},
                                "model": "not a map", "seed": 1})
    assert merged.to_dict() == {"model": {"name": "m"},
                                "dataset": {"size": 4, "name": "d"}, "seed": 1}
    assert list(merged.to_dict()) == ["model", "dataset", "seed"]
    assert list(merged.to_dict()["dataset"]) == ["size", "name"]
    assert cfg.to_dict() == {"model": {"name": "m"}, "dataset": {"size": 4}}


def test_unread_names_leaves_no_get_covered():
    cfg = C.Config({"a": {"b": 1, "c": 2}, "d": {"e": 3}, "f": {}, "g": 4})
    assert cfg.unread() == ["a.b", "a.c", "d.e", "f", "g"]
    cfg.get("a.b")
    cfg.get("d")  # reading a map reads every key under it
    with pytest.raises(C.ConfigError, match="'g' must be a JSON map"):
        cfg.get("g.h", 0)  # a path below a leaf is refused, and does not read it
    assert cfg.unread() == ["a.c", "f", "g"]


def test_unread_empty_map_needs_a_read_at_or_below_it():
    cfg = C.Config({"modle": {}, "topology": {}, "x": {"y": {}}, "z": {}})
    assert cfg.unread() == ["modle", "topology", "x.y", "z"]
    cfg.get("topology.host_count", 1)  # a missing key below the map reads it
    cfg.get("x")  # so does reading a map above it
    cfg.get("z")  # or the map itself
    cfg.get("modl.name", "m")  # a sibling's prefix does not
    assert cfg.unread() == ["modle"]


# number reads that pass no within=, their ranges checked by OptimizerSpec
_RANGED_ELSEWHERE = {"optimizer.lr", "optimizer.momentum"}


def test_every_number_or_list_read_passes_within():
    # a default that is not a literal string, bool, null or map is taken for
    # a number or a list: an expression's kind cannot be read from the source
    unranged, reads = set(), 0
    for path in sorted(pathlib.Path(C.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "config"):
                continue
            reads += 1
            keywords = {k.arg: k.value for k in node.keywords}
            default = node.args[1] if len(node.args) > 1 else keywords.get("default")
            if default is None or isinstance(default, ast.Dict) or (
                    isinstance(default, ast.Constant)
                    and type(default.value) in (str, bool, type(None))):
                continue
            if "within" not in keywords:
                unranged.add(node.args[0].value)
    assert reads >= 30  # the walk found the reads
    assert unranged == _RANGED_ELSEWHERE
