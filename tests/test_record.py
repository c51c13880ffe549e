import copy
import pickle

import pytest

from dodecagrid.engine import CellGraph, Configuration, GraphError, Trace
from dodecagrid.geometry import Motion
from dodecagrid.railway import ElementaryCircuit, Side, SwitchKind, SwitchState
from dodecagrid.rules import B, R, W, Conflict, Context, InvarianceReport, Rule, context_from_letters, minimal_context
from dodecagrid.scenarios import NamedScenario, Scenario, build_bridge, build_vertical_segment
from dodecagrid.verify import CheckResult

_CTX = context_from_letters("W B W W W W W W W W W W W".split())
_CTX_TEXT = "Context(current=<CellState.W: 0>, neighbors=(<CellState.B: 1>, " + ", ".join(["<CellState.W: 0>"] * 11) + "))"
_RULE_A = Rule(_CTX, W, "a.rules:1")
_RULE_B = Rule(_CTX, B, "b.rules:2")
_MEMORY = SwitchState(SwitchKind.MEMORY, Side.LEFT)
_FLIPFLOP = SwitchState(SwitchKind.FLIPFLOP, Side.RIGHT)
_INITIAL = Configuration({1: W, 2: W})

# every value type: (class, keyword arguments in field order, pinned repr); the value is built afresh for each use
VALUES = [
    (Configuration, {"states": {1: W}, "time": 3}, "Configuration(states={1: <CellState.W: 0>}, time=3)"),
    (
        Trace,
        {"cell_ids": (1, 2), "start": 0, "initial": (W, B), "changes": (((1, R),),)},
        "Trace(cell_ids=(1, 2), start=0, initial=(<CellState.W: 0>, <CellState.B: 1>),"
        " changes=(((1, <CellState.R: 2>),),))",
    ),
    (Context, {"current": W, "neighbors": _CTX.neighbors}, _CTX_TEXT),
    (
        Rule,
        {"context": _CTX, "new_state": R, "source": "a.rules:1"},
        f"Rule(context={_CTX_TEXT}, new_state=<CellState.R: 2>, source='a.rules:1')",
    ),
    (
        Conflict,
        {"a": _RULE_A, "b": _RULE_B, "minimal": minimal_context(_CTX)},
        f"Conflict(a={_RULE_A!r}, b={_RULE_B!r}, minimal={minimal_context(_CTX)!r})",
    ),
    (InvarianceReport, {"conflicts": ()}, "InvarianceReport(conflicts=())"),
    (Motion, {"f0": 0, "f1": 1}, "Motion(f0=0, f1=1)"),
    (NamedScenario, {"builder": build_bridge, "args": ("v1",)}, f"NamedScenario(builder={build_bridge!r}, args=('v1',))"),
    (CheckResult, {"name": "golden: v1-fwd", "ok": True}, "CheckResult(name='golden: v1-fwd', ok=True, detail='')"),
    (
        SwitchState,
        {"kind": SwitchKind.MEMORY, "selected": Side.LEFT},
        "SwitchState(kind=<SwitchKind.MEMORY: 'memory'>, selected=<Side.LEFT: 'left'>)",
    ),
    (
        ElementaryCircuit,
        {"e_switch": _MEMORY, "u_switch": _FLIPFLOP},
        f"ElementaryCircuit(e_switch={_MEMORY!r}, u_switch={_FLIPFLOP!r})",
    ),
    (  # no graph: a CellGraph compares by identity, so no copy of one would equal it
        Scenario,
        {
            "name": "s",
            "graph": None,
            "initial": _INITIAL,
            "track_cells": (1, 2),
            "segment_cells": (2,),
            "default_steps": 3,
            "layout": {1: (0.0, 0.0), 2: (1.0, 0.0)},
            "crossing_track": (),
            "crossing": None,
        },
        f"Scenario(name='s', graph=None, initial={_INITIAL!r}, track_cells=(1, 2), segment_cells=(2,), default_steps=3,"
        " layout={1: (0.0, 0.0), 2: (1.0, 0.0)}, crossing_track=(), crossing=None)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_record_equality_hash_and_repr(cls, kwargs, text):
    value = cls(**kwargs)
    fields = tuple(getattr(value, name) for name in cls._fields)
    assert value == cls(*kwargs.values())
    assert repr(value) == text
    # a value is the tuple of its fields: it equals that tuple, and hashes as it
    assert value == fields and fields == value
    if cls in (Configuration, Scenario):  # they hold dicts, so they are no more hashable than those
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**kwargs)) == hash(fields)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_record_is_frozen(cls, kwargs, text):
    value = cls(**kwargs)
    for name in (*kwargs, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_record_pickles_and_copies(cls, kwargs, text):
    value = cls(**kwargs)
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(again) is cls
        assert again == value
        assert repr(again) == text


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_record_constructor_rejects_a_bad_call(cls, kwargs, text):
    # too many fields, a missing field with no default (no type's first field has one), an unknown field,
    # a field given twice: each a TypeError that names the class
    values = list(kwargs.values())
    first = next(iter(kwargs))
    given = {name: value for name, value in kwargs.items() if name != first}
    for args, more in (
        ([None] * (len(cls._fields) + 1), {}),  # one field too many
        ([], given),  # the first field left out
        (values, {"bogus": None}),  # no such field
        (values[:1], {first: values[0]}),  # the first field twice
    ):
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*args, **more)


def test_record_defaults_fill_only_what_a_call_leaves_out():
    assert Configuration({1: W}) == Configuration({1: W}, 0) == Configuration(states={1: W}, time=0)
    assert CheckResult("c", True).detail == "" and CheckResult("c", True, detail="d").detail == "d"
    assert NamedScenario(build_bridge).args == ()
    assert Rule(_CTX, W).source == "" and Rule(_CTX, W, source="s").source == "s"


def test_elementary_circuit_validates_its_switches():
    with pytest.raises(ValueError, match="^gate E needs a memory switch$"):
        ElementaryCircuit(_FLIPFLOP, _FLIPFLOP)
    with pytest.raises(ValueError, match="^gate U needs a flip-flop switch$"):
        ElementaryCircuit(_MEMORY, _MEMORY)
    with pytest.raises(ValueError, match="^gate E needs a memory switch$"):
        ElementaryCircuit(e_switch=_FLIPFLOP, u_switch=_FLIPFLOP)


def test_a_bad_port_is_named_by_its_repr():
    fixed = [W] * 12
    fixed[3] = _MEMORY
    text = r"SwitchState\(kind=<SwitchKind.MEMORY: 'memory'>, selected=<Side.LEFT: 'left'>\)"
    with pytest.raises(GraphError, match=rf"^cell 1 face 3: fixed state {text} is not a CellState$"):
        CellGraph({1: (fixed, {})})


def test_scenario_is_a_frozen_unhashable_record():
    built = build_vertical_segment(3)
    fields = {name: getattr(built, name) for name in Scenario._fields}
    same = Scenario(**fields)
    assert same == built and same is not built
    with pytest.raises(TypeError):
        hash(built)
    with pytest.raises(AttributeError):
        same.default_steps = 9
    with pytest.raises(AttributeError):
        del same.layout
    assert same == built
    # a scenario built without a layout has none, rather than a dict that every such scenario would share
    a = Scenario("a", built.graph, built.initial)
    assert a.layout is None and a.default_steps == 7 and a.track_cells == a.crossing_track == ()
    assert repr(a).startswith("Scenario(name='a', graph=<dodecagrid.engine.CellGraph object at ")
    again = pickle.loads(pickle.dumps(built))
    assert type(again) is Scenario
    assert again.graph.cell_ids == built.graph.cell_ids
    assert [again.graph.wiring(cell) for cell in again.graph.cell_ids] == [built.graph.wiring(cell) for cell in built.graph.cell_ids]
    assert {name: getattr(again, name) for name in Scenario._fields if name != "graph"} == {
        name: value for name, value in fields.items() if name != "graph"
    }
