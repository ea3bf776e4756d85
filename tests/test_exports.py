"""phasedr's exports, each pinned to a consumer outside the library's core.

A consumer is an acceptance criterion, a demo, the CLI or a README
example.  Every name that phasedr/__init__.py imports is pinned here to
one consumer that uses it, or, for a type, to the exported function whose
signature or docstring names it as a parameter or result type.  A new
export needs a consumer, and an export whose consumer stops using it is
dropped.  perfbench's tracer is no consumer of the package root: it wraps
each function it traces in the function's own module, so its bindings are
checked there.
"""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import phasedr

ROOT = Path(__file__).resolve().parents[1]
CRITERIA = "tests/test_acceptance.py"
CLI = "src/phasedr/cli.py"
README = "README.md"
FORWARD_DEMO = "demos/01_forward_model.py"
SPECTRAL_DEMO = "demos/03_spectral_gap.py"
SECTOR_DEMO = "demos/04_sector_one_pattern.py"
SWEEP_DEMO = "demos/05_noise_and_padding.py"

CONSUMERS = {
    "GridShape": FORWARD_DEMO,
    "ImageSpec": FORWARD_DEMO,
    "gen_image": FORWARD_DEMO,
    "make_mask": FORWARD_DEMO,
    "make_operator": FORWARD_DEMO,
    "synthesize_data": FORWARD_DEMO,
    "apply_astar": FORWARD_DEMO,
    "apply_a": FORWARD_DEMO,
    "InitSpec": SPECTRAL_DEMO,
    "SolverConfig": SPECTRAL_DEMO,
    "run_solver": SPECTRAL_DEMO,
    "lambda2_power": SPECTRAL_DEMO,
    "linearize_at_solution": SPECTRAL_DEMO,
    "svd_oracle": SPECTRAL_DEMO,
    "check_gap_condition": SPECTRAL_DEMO,
    "SectorSpec": SECTOR_DEMO,
    "ExperimentConfig": SWEEP_DEMO,
    "realify": CRITERIA,
    "unrealify": CRITERIA,
    "support_rank": CRITERIA,
    "fdr_step": CRITERIA,
    "apply_Sloc": CRITERIA,
    "apply_realB_T": CRITERIA,
    "prob_lower_bound": CRITERIA,
    "run_global": CRITERIA,
    "run_noise_sweep": CRITERIA,
    "run_padding_sweep": CRITERIA,
    "NO_SECTOR": CLI,
    "run_local_rate": CLI,
    "run_spectral_cert": CLI,
}

# Type -> the exported function that takes or returns it.
TYPES = {
    "MaskSpec": "make_mask",
    "PropagationOp": "make_operator",
    "MeasuredData": "synthesize_data",
    "RecoveryResult": "run_solver",
    "LinearizationPoint": "linearize_at_solution",
    "SpectralReport": "lambda2_power",
    "GapDiagnostic": "check_gap_condition",
}


def _exports() -> list[str]:
    tree = ast.parse((ROOT / "src" / "phasedr" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _identifiers(source: str) -> set[str]:
    """The names, attributes and imported names of Python source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def _uses(consumer: str) -> set[str]:
    """The names a consumer uses: README the identifiers of its Python
    examples, any other file its own."""
    text = (ROOT / consumer).read_text()
    if consumer == README:
        return set().union(*map(_identifiers, re.findall(r"```python\n(.*?)```", text, re.S)))
    return _identifiers(text)


def test_every_export_is_pinned_once():
    exports = _exports()
    assert len(exports) == len(set(exports))
    assert not set(CONSUMERS) & set(TYPES)
    assert set(exports) == set(CONSUMERS) | set(TYPES)


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_consumer_uses_its_name(name):
    assert name in _uses(CONSUMERS[name]), f"{CONSUMERS[name]} no longer uses {name}"


@pytest.mark.parametrize("name", sorted(TYPES))
def test_type_is_named_by_an_exported_function(name):
    fn = getattr(phasedr, TYPES[name])
    assert TYPES[name] in CONSUMERS and inspect.isclass(getattr(phasedr, name))
    named = str(inspect.signature(fn)) + (fn.__doc__ or "")
    assert re.search(rf"\b{name}\b", named), f"{TYPES[name]} does not name {name}"


def _traced() -> dict:
    """perfbench/spans.py's TRACED table: layer -> the functions it wraps."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("traced", [f"{layer}.{name}" for layer, names in _traced().items()
                                    for name in names])
def test_traced_function_is_bound_in_its_module(traced):
    # spans.install looks each one up in its loaded module, as here.
    layer, name = traced.split(".")
    assert callable(getattr(sys.modules[f"phasedr.{layer}"], name, None)), (
        f"phasedr.{layer} has no function {name}")
