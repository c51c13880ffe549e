from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dodecagrid.railway import (
    CircuitExit,
    CrossingMode,
    ElementaryCircuit,
    Exit,
    Gate,
    Side,
    SwitchKind,
    SwitchState,
    circuit_enter,
    cross,
    new_circuit,
)


def passive_mode(state, arm):
    """The passive crossing of ``state`` that enters by the absolute ``arm``."""
    return CrossingMode.PASSIVE_SELECTED if arm is state.selected else CrossingMode.PASSIVE_NONSELECTED


def reference_cross(state, arm):
    """Enter by the absolute ``arm``, or by the single track when ``arm`` is None.

    A memory switch selects the arm it was entered by; a flip-flop toggles on
    an active crossing and refuses a passive one; a fixed switch never moves.
    """
    if arm is None:
        after = SwitchState(state.kind, state.selected.other) if state.kind is SwitchKind.FLIPFLOP else state
        return Exit(state.selected.value), after
    if state.kind is SwitchKind.FLIPFLOP:
        raise ValueError("a flip-flop switch is never crossed passively")
    return Exit.U, SwitchState(state.kind, arm) if state.kind is SwitchKind.MEMORY else state


@pytest.mark.parametrize("kind, selected, mode", list(product(SwitchKind, Side, CrossingMode)))
def test_cross_matches_the_absolute_arm_reference(kind, selected, mode):
    state = SwitchState(kind, selected)
    arm = {
        CrossingMode.ACTIVE: None,
        CrossingMode.PASSIVE_SELECTED: selected,
        CrossingMode.PASSIVE_NONSELECTED: selected.other,
    }[mode]
    try:
        want = reference_cross(state, arm)
    except ValueError as exc:  # a passive flip-flop crossing: cross must refuse it alike
        with pytest.raises(ValueError, match=f"^{exc}$"):
            cross(state, mode)
        return
    assert cross(state, mode) == want


def test_fixed_active_keeps_state():
    state = SwitchState(SwitchKind.FIXED, Side.LEFT)
    exit_taken, after = cross(state, CrossingMode.ACTIVE)
    assert exit_taken is Exit.LEFT
    assert after == state


def test_flipflop_active_toggles():
    state = SwitchState(SwitchKind.FLIPFLOP, Side.LEFT)
    exit_taken, after = cross(state, CrossingMode.ACTIVE)
    assert exit_taken is Exit.LEFT
    assert after.selected is Side.RIGHT


def test_flipflop_passive_rejected():
    with pytest.raises(ValueError):
        cross(SwitchState(SwitchKind.FLIPFLOP, Side.LEFT), CrossingMode.PASSIVE_SELECTED)


def test_memory_passive_sets_arm():
    state = SwitchState(SwitchKind.MEMORY, Side.LEFT)
    exit_taken, after = cross(state, CrossingMode.PASSIVE_NONSELECTED)
    assert exit_taken is Exit.U
    assert after.selected is Side.RIGHT


def test_memory_active_keeps_state():
    state = SwitchState(SwitchKind.MEMORY, Side.RIGHT)
    exit_taken, after = cross(state, CrossingMode.ACTIVE)
    assert exit_taken is Exit.RIGHT
    assert after == state


@given(st.lists(st.sampled_from(CrossingMode), max_size=30))
def test_fixed_state_constant_under_any_sequence(modes):
    state = SwitchState(SwitchKind.FIXED, Side.LEFT)
    for mode in modes:
        _, state = cross(state, mode)
    assert state.selected is Side.LEFT


@given(st.integers(min_value=0, max_value=50), st.sampled_from(list(Side)))
def test_flipflop_parity(n, start):
    state = SwitchState(SwitchKind.FLIPFLOP, start)
    for _ in range(n):
        _, state = cross(state, CrossingMode.ACTIVE)
    assert state.selected is (start if n % 2 == 0 else start.other)


@given(st.sampled_from(Side), st.lists(st.one_of(st.none(), st.sampled_from(Side)), max_size=30))
def test_memory_selected_is_last_passive_arm(start, entries):
    # each entry is the arm the locomotive enters by, or None for the single track
    state, last_arm = SwitchState(SwitchKind.MEMORY, start), start
    for arm in entries:
        _, state = cross(state, CrossingMode.ACTIVE if arm is None else passive_mode(state, arm))
        last_arm = last_arm if arm is None else arm
        assert state.selected is last_arm


def test_circuit_read_is_pure():
    circuit = new_circuit(Side.LEFT)
    out, after = circuit_enter(circuit, Gate.E)
    assert out is CircuitExit.O1
    assert after == circuit
    out2, _ = circuit_enter(new_circuit(Side.RIGHT), Gate.E)
    assert out2 is CircuitExit.O2


def test_circuit_write_toggles_both_switches():
    circuit = new_circuit(Side.LEFT)
    out, after = circuit_enter(circuit, Gate.U)
    assert out is CircuitExit.U_RETURN
    assert after.e_switch.selected is Side.RIGHT
    assert after.u_switch.selected is Side.RIGHT


def test_write_twice_is_involution():
    circuit = new_circuit(Side.LEFT)
    _, once = circuit_enter(circuit, Gate.U)
    _, twice = circuit_enter(once, Gate.U)
    assert twice == circuit


def test_read_after_write_sees_flipped_bit():
    circuit = new_circuit(Side.LEFT)
    _, written = circuit_enter(circuit, Gate.U)
    out, _ = circuit_enter(written, Gate.E)
    assert out is CircuitExit.O2


def test_circuit_kind_validation():
    with pytest.raises(ValueError):
        ElementaryCircuit(
            SwitchState(SwitchKind.FIXED, Side.LEFT),
            SwitchState(SwitchKind.FLIPFLOP, Side.LEFT),
        )
