"""The CLI contract on generated input.

README promises that every run ends with a documented exit code, that a
nonzero exit prints exactly one stderr line, and that no exception escapes
`main`.  Hypothesis draws the inputs, derandomized and with no example
database, so every run draws the same ones: argv forms of the three
commands around one small valid config, and config bytes that each fail
before any numerics.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuc.cli import main

EXIT_CODES = {0, 1, 2, 3, 4, 5}
COMMANDS = ["oracle", "predict", "compare"]
METHODS = ["essential", "poles", "scattering", "zero-weight"]
# a weight of each kind that has parameters, for a drawn value to replace
WEIGHTS = [
    {"kind": "bernstein_szego", "c": 2.0},
    {"kind": "rational_modulus", "cs": [2.0, -2.0]},
    {"kind": "essential", "rho": 0.5},
    {"kind": "inverse_essential", "rho": 0.5},
    {"kind": "zero_modified", "base": {"kind": "lebesgue"},
     "zeros": [{"angle": 0.0, "beta": 0.5}]},
]

contract = settings(derandomize=True, database=None, deadline=None, max_examples=150)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def run(argv) -> tuple:
    """main(argv)'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in EXIT_CODES
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A config of a run that takes milliseconds, and the path for drawn configs."""
    root = tmp_path_factory.mktemp("contract")
    path = root / "cfg.json"
    path.write_text(json.dumps({"weight": WEIGHTS[0], "n_list": [1, 2, 3],
                                "outputs": str(root / "out")}))
    return str(path), root / "drawn.json"


@st.composite
def argv_forms(draw, cfg: str) -> list:
    """A command and the options it needs in any order, each as --opt value,
    --opt=value or without its value, then maybe repeated or dropped, with
    unknown tokens anywhere, the command's place included."""
    command = draw(st.sampled_from(COMMANDS))
    names = list(draw(st.permutations(["--config", "--method"] if command == "predict"
                                      else ["--config"])))
    names += draw(st.lists(st.sampled_from(["--config", "--method"]), max_size=2))
    if names and draw(st.booleans()):
        names.pop(draw(st.integers(0, len(names) - 1)))
    awkward = st.sampled_from(["", "=", "\n", "a\nb", "a\x00b", "\ud800", "\udcff"])
    values = {"--config": st.just(cfg) | awkward | st.text(max_size=6),
              "--method": st.sampled_from(METHODS) | awkward | st.text(max_size=6)}
    argv = [command]
    for name in names:
        value, form = draw(values[name]), draw(st.sampled_from(["split", "equals", "bare"]))
        argv += {"split": [name, value], "equals": [f"{name}={value}"], "bare": [name]}[form]
    for token in draw(st.lists(st.text(max_size=8), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@contract
@given(data=st.data())
def test_drawn_argv_keeps_the_contract(config, data):
    cfg, _ = config
    argv = data.draw(argv_forms(cfg) | st.just([]))
    assert_contract(*run(argv))


def is_n_list(v) -> bool:
    return (isinstance(v, list) and bool(v)
            and all(type(n) is int and n > 0 for n in v)
            and all(a < b for a, b in zip(v, v[1:])))


def not_a_number(v) -> bool:
    return isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)


def replaced(doc: dict, key: str, value) -> dict:
    return {**doc, key: value}


@st.composite
def config_bytes(draw, outputs: str) -> bytes:
    """A config that fails before any numerics, as bytes."""
    weight = draw(st.sampled_from(WEIGHTS))
    doc = {"weight": weight, "n_list": [1, 2, 3], "outputs": outputs}
    fault = draw(st.sampled_from(["json", "utf8", "missing", "type", "n_list", "K", "kind",
                                  "parameter"]))
    if fault == "json":
        return draw(st.binary(max_size=40))
    if fault == "utf8":
        text = json.dumps(doc).encode()
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9", b"\x80"])) + text[at:]
    if fault == "missing":   # a key of the config or of its weight
        key = draw(st.sampled_from(sorted(doc) + sorted(weight)))
        if key in doc:
            doc.pop(key)
        else:
            doc["weight"] = {k: v for k, v in weight.items() if k != key}
    elif fault == "type":
        key = draw(st.sampled_from(["weight", "outputs"]))
        doc[key] = draw(JSON.filter(lambda v: not isinstance(v, dict if key == "weight"
                                                             else str)))
    elif fault == "n_list":
        doc["n_list"] = draw((JSON | st.lists(st.integers(-3, 8), max_size=4))
                             .filter(lambda v: not is_n_list(v)))
    elif fault == "K":
        doc["K"] = draw(JSON.filter(lambda v: v is not None
                                    and not (type(v) is int and v > 0)))
    elif fault == "kind":
        kinds = {"lebesgue", *(w["kind"] for w in WEIGHTS)}
        doc["weight"] = replaced(weight, "kind", draw(
            JSON.filter(lambda v: not (isinstance(v, str) and v in kinds))))
    else:
        bad = draw(JSON.filter(not_a_number))
        kind = weight["kind"]
        if kind == "bernstein_szego":
            doc["weight"] = replaced(weight, "c", bad)
        elif kind == "rational_modulus":
            doc["weight"] = replaced(weight, "cs", [2.0, bad])
        elif kind == "zero_modified":
            zero = replaced(weight["zeros"][0], draw(st.sampled_from(["angle", "beta"])), bad)
            doc["weight"] = replaced(weight, "zeros", [zero])
        else:
            doc["weight"] = replaced(weight, "rho", bad)
    return json.dumps(doc).encode()


@contract
@given(data=st.data())
def test_drawn_bad_config_exits_2_with_one_line(config, data):
    _, path = config
    path.write_bytes(data.draw(config_bytes(str(path.parent / "drawn-out"))))
    command = data.draw(st.sampled_from([["oracle"], ["compare"]]
                                        + [["predict", "--method", m] for m in METHODS]))
    code, err = run([*command, "--config", str(path)])
    assert_contract(code, err)
    assert code == 2
