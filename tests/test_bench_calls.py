"""The benchmark's direct calls into the program still resolve, and each
workload runs.

``bench/*.py`` calls program functions by module and name
(``finetune.beam_decode``, ``ad.log_softmax``, ...), reads run-config keys
(``cfg["datapipe"]["workers"]``) and builds typed configs
(``cfg.encoder_config()``). A rename of any of them would otherwise show only
when the benchmark runs; here the benchmark's source is parsed with ``ast``,
not run, and every such name is looked up in the program. Then each
workload runs once, briefly, as the benchmark runs it.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rqspeech import config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _is_cfg(node) -> bool:
    """A run config: a name or attribute called ``cfg``, or its ``.values``."""
    if isinstance(node, ast.Attribute) and node.attr == "values":
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "cfg"
            or isinstance(node, ast.Attribute) and node.attr == "cfg")


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def unresolved(source: str) -> list:
    """Each program name, config key or ``RunConfig`` method that ``source``
    uses and the program does not have, as ``"<line>: <what>"``."""
    tree = ast.parse(source)
    modules, faults = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "rqspeech":  # ``import a.b`` binds ``a``
                    modules[alias.asname or top] = importlib.import_module(
                        alias.name if alias.asname else top)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rqspeech"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    if not hasattr(owner, alias.name):
                        faults.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            faults.append((node.lineno, f"{modules[node.value.id].__name__}.{node.attr}"))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and _is_cfg(node.value.value)):
            section, key = _string(node.value.slice), _string(node.slice)
            if section is not None and key not in config.SCHEMA.get(section, {}):
                faults.append((node.lineno, f"config key [{section}] {key}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_cfg(node.func.value)
                and (node.func.attr.endswith("_config") or node.func.attr == "flat_dict")
                and not callable(getattr(config.RunConfig, node.func.attr, None))):
            faults.append((node.lineno, f"RunConfig.{node.func.attr}"))
    return [f"{line}: {what}" for line, what in sorted(faults)]


def test_bench_names_resolve():
    sources = sorted(BENCH.glob("*.py"))
    assert sources
    faults = [f"{path.name}:{fault}" for path in sources
              for fault in unresolved(path.read_text(encoding="utf-8"))]
    assert faults == []


def test_each_kind_of_stale_name_is_reported():
    source = """
from rqspeech import autodiff as ad
from rqspeech import finetune
from rqspeech.config import default_config, no_such_loader
import rqspeech

finetune.beam_decode(x, 8)
finetune.beam_search(x, 8)
ad.log_softmax(x)
rqspeech.__file__, rqspeech.no_such_module
self.cfg["datapipe"]["workers"]
wl.cfg["datapipe"]["num_workers"]
cfg.values["corpus"]["manifest"]
cfg["nosection"]["seed"]
np.show_config(mode="dicts")["Build Dependencies"]["blas"]
cfg.encoder_config()
cfg.decoder_config()
cfg.flat_dict()
state.cfg.quantizer
"""
    assert unresolved(source) == [
        "4: rqspeech.config.no_such_loader",
        "8: rqspeech.finetune.beam_search",
        "10: rqspeech.no_such_module",
        "12: config key [datapipe] num_workers",
        "14: config key [nosection] seed",
        "17: RunConfig.decoder_config",
    ]


@pytest.mark.parametrize("workload", ["pretrain", "decode"])
def test_workload_runs_correct_with_the_declared_metrics(workload):
    # the run's work directory, .bench_work/, is removed when it ends
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                         cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
