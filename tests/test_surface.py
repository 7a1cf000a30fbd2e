"""The library keeps what the CLI runs.

`oracle`, `predict` and `compare` run in process on small configs of all
four methods and every weight kind, with `os.fork` removed so that the
zeros chain runs in this process too, while `sys.setprofile` records every
Python function called.  Every `def` under `src/opuc` must have been called
or be listed in ALLOWED with the reason no run calls it; a function that
no CLI path needs belongs in `tests/oracles.py`.  Functions are keyed by
file and first line, not by name: `weights.py` has two `__call__`.
"""

import ast
import importlib
import json
import math
import os
import pkgutil
import sys

import opuc
from opuc.cli import main

ZEROS = [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]

# (weight, n_list, predict method); each command exits 0 on each
CONFIGS = [
    ({"kind": "lebesgue"}, list(range(1, 7)), "scattering"),
    ({"kind": "bernstein_szego", "c": 2.0}, list(range(1, 13)), "scattering"),
    ({"kind": "rational_modulus", "cs": [2.0, 2.0, -2.0]}, list(range(1, 13)), "poles"),
    ({"kind": "essential", "rho": 0.5}, list(range(10, 15)), "essential"),
    ({"kind": "inverse_essential", "rho": 0.5}, list(range(10, 15)), "essential"),
    ({"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 2.0}, "zeros": ZEROS},
     list(range(1, 21)), "zero-weight"),
    # no zero left once beta = 0 is dropped: the oracle samples the weight itself
    ({"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 2.0},
      "zeros": [{"angle": 1.0, "beta": 0.0}]}, list(range(8, 13)), "zero-weight"),
]

ITEM_3 = "ROADMAP item 3 (and 17) gives it a consumer in compare's check table"
# (module, dotted name): why no run above calls it
ALLOWED = {
    ("canonical", "reconstruct_phi"): ITEM_3,
    ("canonical", "SMatrixEntries.s11"): ITEM_3,
    ("canonical", "SMatrixEntries.s12"): ITEM_3,
    ("canonical", "SMatrixEntries.s21"): ITEM_3,
    ("canonical", "SMatrixEntries.s22"): ITEM_3,
    ("canonical", "_summed"): ITEM_3,
    ("zeros", "match"): ITEM_3,
    ("zeros", "_assign"): ITEM_3,
    ("asymptotics", "dominant_pole_phi"): ITEM_3,
    ("asymptotics", "zero_weight_phi"): ITEM_3,
    ("szego", "modified_szego"): ITEM_3,
    ("szego", "_check_off_cuts"): ITEM_3,
    ("weights", "rational_modulus.d_i"): "ROADMAP item 16: the closed forms judge the Szego data",
    ("weights", "rational_modulus.d_e"): "ROADMAP item 16: the closed forms judge the Szego data",
    ("weights", "_essential_family.d_e"): "ROADMAP item 16: the closed forms judge the Szego data",
    ("zeros", "ZeroSet.residual"): "ROADMAP items 1a and 7: run.json's root residuals",
    ("oracle", "PositivityLossError.__init__"): "refusal only (exit 3)",
    ("cli", "_Table.__missing__"): "refusal only (exit 5)",
    ("cli", "_received"): "the forked path only",
}


def library_defs() -> dict:
    """{(file, first line): (module, dotted name)} of every def under src/opuc;
    the first line of a decorated def is that of its first decorator, as in
    its code object."""
    defs = {}
    for module in [opuc] + [importlib.import_module(f"opuc.{info.name}")
                            for info in pkgutil.iter_modules(opuc.__path__)]:
        path, module_name = module.__file__, module.__name__.rpartition(".")[2]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        defs[path, line] = (module_name, name)
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return defs


def test_every_library_function_has_a_cli_caller_or_a_reason(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    called, codes = set(), []

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for i, (weight, n_list, method) in enumerate(CONFIGS):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"weight": weight, "n_list": n_list,
                                       "outputs": str(tmp_path / f"out{i}")}))
            codes.append((main(["oracle", "--config", str(cfg)]),
                          main(["predict", "--method", method, "--config", str(cfg)]),
                          main(["compare", "--config", str(cfg)])))
    finally:
        sys.setprofile(previous)
    assert codes == [(0, 0, 0)] * len(CONFIGS)
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    unreached = {name for key, name in library_defs().items() if key not in reached}
    assert unreached - ALLOWED.keys() == set(), "no CLI run calls these: give each a reason"
    assert ALLOWED.keys() - unreached == set(), "a CLI run calls these now"
