"""Every public callable that takes a window length, search length, period or
frame length checks it through ``window.check_int``, or is exempt by name.
The public methods of exported classes count too, as ``Class.method``.

A new public function with one of these parameters fails
``test_every_count_parameter_is_checked_or_exempt`` until it joins one table.
"""

import inspect

import pytest

import delaysched
from delaysched import (
    PeriodicSchedule,
    RegionDescription,
    algorithm_a,
    algorithm_b,
    block_from_rows,
    build,
    build_framed_schedule,
    build_layered,
    build_maximal,
    build_window,
    check_block,
    closed_path_rate,
    has_edge,
    is_vertex,
    johnson_cycles,
    line_network,
    make_network,
    pareto_filter,
    rate_numerators,
    region_from_cycles,
    region_regime,
    schedule_from_closed_path,
    schedule_is_path,
    window_symmetric_rate,
)

# Each parameter name and the name its error message gives it.
LABELS = {"T": "window length", "k": "k", "k_max": "k_max", "max_len": "max_len",
          "period": "period", "T_F": "frame length"}

LINE = line_network(4, 1)
FREE = make_network(["a", "b"], {}, {})

CHECKED = {
    ("build_window", "T"): lambda v: build_window(LINE, v),
    ("block_from_rows", "T"): lambda v: block_from_rows(["0"] * 4, v),
    ("check_block", "T"): lambda v: check_block(0, 4, v),
    ("PeriodicSchedule", "period"): lambda v: PeriodicSchedule(v, ({0}, set())),
    ("build_framed_schedule", "T_F"): lambda v: build_framed_schedule(FREE, [({"a"}, 1)], v),
    ("schedule_from_closed_path", "T"): lambda v: schedule_from_closed_path([0, 0], v, 4),
    ("is_vertex", "T"): lambda v: is_vertex(LINE, 0, v),
    ("has_edge", "T"): lambda v: has_edge(LINE, 0, 0, v),
    ("build", "T"): lambda v: build(LINE, v),
    ("build_maximal", "T"): lambda v: build_maximal(LINE, v),
    ("schedule_is_path", "T"):
        lambda v: schedule_is_path(LINE, schedule_from_closed_path([0, 0], 1, 4), v),
    ("closed_path_rate", "T"): lambda v: closed_path_rate([0, 0], v, 4),
    ("rate_numerators", "T"): lambda v: rate_numerators([[0, 0]], v, 4),
    ("pareto_filter", "T"): lambda v: pareto_filter([(0, 0)], v, 4),
    ("johnson_cycles", "max_len"): lambda v: johnson_cycles(build(LINE, 1), max_len=v),
    ("build_layered", "T"): lambda v: build_layered(LINE, v, 1),
    ("build_layered", "k"): lambda v: build_layered(LINE, 1, v),
    ("algorithm_a", "T"): lambda v: algorithm_a(LINE, v, 1),
    ("algorithm_a", "k_max"): lambda v: algorithm_a(LINE, 1, v),
    ("algorithm_b", "T"): lambda v: algorithm_b(LINE, v, 1),
    ("algorithm_b", "k_max"): lambda v: algorithm_b(LINE, 1, v),
    ("RegionDescription", "T"): lambda v: RegionDescription(("a",), v, (), (), {}),
    ("region_from_cycles", "T"): lambda v: region_from_cycles(LINE, [], v),
    ("window_symmetric_rate", "T"): lambda v: window_symmetric_rate(LINE, v),
    ("region_regime", "T"): lambda v: region_regime(LINE, v),
    ("PeriodicSchedule.slab", "T"): lambda v: PeriodicSchedule(2, [{0}, {1}]).slab(v, 0),
}

EXEMPT = {
    ("bit_position", "T"): "bit-layout helper: arithmetic on a layout its caller has checked",
    ("link_row_masks", "T"): "bit-layout helper: masks for a window its caller has checked",
    ("block_to_rows", "T"): "bit-layout helper: formats a block its caller has checked",
    ("WindowGraph", "T"): "a record that build_window fills after checking T",
    ("PeriodicSchedule.slab", "k"): "a slab index: any int, with no least value",
}


def _public_callables():
    """Every exported callable, and every public method an exported class defines."""
    for name in delaysched.__all__:
        obj = getattr(delaysched, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _count_parameters():
    found = set()
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception class takes no such parameter
            continue
        found |= {(name, p) for p in params if p in LABELS}
    return found


def test_every_count_parameter_is_checked_or_exempt():
    assert not set(CHECKED) & set(EXEMPT)
    assert _count_parameters() == set(CHECKED) | set(EXEMPT)


@pytest.mark.parametrize("value", [True, 2.0], ids=repr)
@pytest.mark.parametrize("key", sorted(CHECKED), ids="-".join)
def test_a_checked_count_parameter_rejects_a_bool_and_a_float(key, value):
    with pytest.raises(ValueError, match=f"bad {LABELS[key[1]]} {value!r}"):
        CHECKED[key](value)
