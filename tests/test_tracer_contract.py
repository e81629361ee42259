"""The benchmark's tracer finds every name it wraps.

``perfbench/tracer.py`` looks each traced function and method up by name
when it installs; a rename or deletion in ``cat_lab`` would break only the
traced benchmark run.  This loads the tracer by path, unchanged, and checks
its name tables against the package in milliseconds.
"""

import importlib.util
import inspect
from pathlib import Path

from cat_lab.adversarial import optimize_lambda

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_tracer()
    missing = [f"{home.__name__}.{attr}" for home, attr in tracer.FUNCTIONS
               if not hasattr(home, attr)]
    missing += [f"{cls.__name__}.{attr}" for cls, attr in tracer.METHODS
                if attr not in cls.__dict__]
    assert not missing, f"the tracer wraps names cat_lab lacks: {missing}"


def test_lambda_meta_reads_optimize_lambda_by_position():
    # the tracer's λ span reads ``args[0]`` as the plan and ``args[5]`` as the config
    params = list(inspect.signature(optimize_lambda).parameters)
    assert params[0] == "plan" and params[5] == "config"
