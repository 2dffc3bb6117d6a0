"""The names that perfbench looks up on the package still resolve.

perfbench is read as source, not imported or changed.  Its traced pass
wraps the public functions of the modules in tracing.TRACED_MODULES and
reads SPAN_METRICS from those wrappers, and its workloads call `dg.<name>`
on the package.  A missing module crashes `run.py --trace 1`; a function
that moved out of the module a metric names leaves that metric at 0.
"""

import ast
import inspect
from pathlib import Path

import pytest

import diskgeom
import diskgeom.cli  # noqa: F401  (the traced pass imports it too)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# per-layer metrics that read 0: their functions are aliases of minkowski's and are charged there
STALE_SPANS = {"nsphere.lift_sphere", "nsphere.verify_generalized_n"}


def perfbench_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def tracing_constant(name: str):
    for node in perfbench_tree("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"tracing.py assigns no {name}")


def dg_chains(name: str) -> set[str]:
    """Every maximal dotted chain `dg.a.b` read in a perfbench file, without the `dg.`."""
    chains, inner = set(), set()
    for node in ast.walk(perfbench_tree(name)):
        if isinstance(node, ast.Attribute):
            parts, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                inner.add(id(value))
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "dg" and id(node) not in inner:
                chains.add(".".join(reversed(parts)))
    return chains


@pytest.mark.parametrize("short", tracing_constant("TRACED_MODULES"))
def test_traced_modules_are_package_attributes(short):
    assert inspect.ismodule(getattr(diskgeom, short, None)), f"diskgeom.{short} is not a module"


SPAN_FUNCTIONS = sorted({function for function, _ in tracing_constant("SPAN_METRICS").values()} - STALE_SPANS)


@pytest.mark.parametrize("function", SPAN_FUNCTIONS)
def test_span_functions_are_defined_where_their_metric_says(function):
    short, name = function.split(".")
    module = getattr(diskgeom, short)
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{function} is not defined in {short}"


def test_workload_names_resolve_on_the_package():
    chains = dg_chains("workloads.py") | dg_chains("tracing.py")
    assert "lift_sphere" in chains and "cli.main" in chains  # the walk found the calls
    for chain in sorted(chains):
        target = diskgeom
        for part in chain.split("."):
            assert hasattr(target, part), f"dg.{chain} does not resolve"
            target = getattr(target, part)
