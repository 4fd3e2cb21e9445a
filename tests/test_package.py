"""The package's public names are its modules' ``__all__`` lists, re-exported; its imports
are the standard library's."""

import ast
import sys
from pathlib import Path

import pytest

import delaysched
from delaysched import cycles, exactlp, network, region, schedgraph, schedule, window

MODULES = (network, window, schedule, schedgraph, cycles, exactlp, region)

# Every name the package exported while it kept its own import list; none may go.
EARLIER_EXPORTS = [
    "CapExceededError", "CycleSearchResult", "InvalidNetworkError", "MaximalEdgeGraph",
    "Network", "PeriodicSchedule", "RegionDescription", "SchedulingGraph", "WindowGraph",
    "active_slots", "algorithm_a", "algorithm_b", "apply_vertex_assignment",
    "block_from_rows", "block_to_rows", "build", "build_framed_schedule", "build_layered",
    "build_maximal", "build_window", "canonical_cycle", "character", "closed_path_rate",
    "collision_support", "count_layered_paths", "cycle_dominates", "dominates",
    "framed_region", "gcd_reduce", "has_edge", "is_achievable", "is_binary",
    "is_collision_free_at", "is_vertex", "iter_layered_paths", "johnson_cycles",
    "line_network", "make_network", "network_from_json", "network_to_json", "pareto_filter",
    "path_to_cycles", "rate_vector", "region_from_cycles", "region_regime",
    "sandwich_check", "schedule_from_closed_path", "schedule_from_json", "schedule_is_path",
    "schedule_to_json", "validate", "verify", "window_symmetric_rate",
]


def test_package_all_is_the_module_lists_joined():
    joined = [name for module in MODULES for name in module.__all__]
    assert delaysched.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_package_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(delaysched, name) is vars(module)[name], name


def test_each_module_all_names_what_the_module_defines():
    for module in MODULES:
        for name in module.__all__:
            assert vars(module)[name].__module__ == module.__name__, name


def test_modules_stay_package_attributes_outside_all():
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        assert getattr(delaysched, short) is module
        assert short not in delaysched.__all__


def test_every_earlier_export_is_still_exported():
    assert len(EARLIER_EXPORTS) == 53
    assert set(EARLIER_EXPORTS) <= set(delaysched.__all__)


def test_the_package_imports_only_the_standard_library():
    # No dependency is pulled in, not even for a single call: the tests need only pytest.
    tomllib = pytest.importorskip("tomllib")
    package = Path(delaysched.__file__).parent
    foreign = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign |= {(path.name, n) for n in names
                        if n.partition(".")[0] not in sys.stdlib_module_names}
    assert not foreign
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []
    assert pyproject["project"]["optional-dependencies"]["test"] == ["pytest"]


def test_no_module_imports_another_modules_private_name():
    # A name with a leading underscore stays inside the module that defines it.
    package = Path(delaysched.__file__).parent
    private = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private |= {(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")}
    assert not private
