"""Abstract railway-model semantics: switch state machines, crossing modes and the one-bit circuit.

This is the event-level oracle the cellular traces are checked against.  It
knows nothing about cells or timing: a crossing is atomic and only the exit
taken and the resulting switch state matter.  It owns the crossing modes, which
also name the scenarios, the golden runs and the CLI's ``--mode``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


class SwitchKind(Enum):
    FIXED = "fixed"
    FLIPFLOP = "flipflop"
    MEMORY = "memory"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class Exit(Enum):
    """Where the locomotive leaves a switch: one of the arms, or the single track."""

    LEFT = "left"
    RIGHT = "right"
    U = "u"


class CrossingMode(Enum):
    """Enter by the single track, or passively by the selected arm or by the other one."""

    ACTIVE = "active"
    PASSIVE_SELECTED = "sel"
    PASSIVE_NONSELECTED = "nonsel"


SwitchState = namedtuple("SwitchState", "kind selected")


def cross(state: SwitchState, mode: CrossingMode) -> tuple[Exit, SwitchState]:
    """Run one crossing; return the exit taken and the successor state."""
    if mode is CrossingMode.ACTIVE:
        exit_taken = Exit(state.selected.value)
        if state.kind is SwitchKind.FLIPFLOP:
            return exit_taken, SwitchState(state.kind, state.selected.other)
        return exit_taken, state
    if state.kind is SwitchKind.FLIPFLOP:
        raise ValueError("a flip-flop switch is never crossed passively")
    # a memory switch selects the arm it was entered by, so only a crossing through the other arm flips it
    if state.kind is SwitchKind.MEMORY and mode is CrossingMode.PASSIVE_NONSELECTED:
        return Exit.U, SwitchState(state.kind, state.selected.other)
    return Exit.U, state


class Gate(Enum):
    E = "E"
    U = "U"


class CircuitExit(Enum):
    O1 = "O1"
    O2 = "O2"
    U_RETURN = "U-return"


class ElementaryCircuit(namedtuple("ElementaryCircuit", "e_switch u_switch")):
    """One stored bit: a memory switch at the read gate, a flip-flop at the write gate."""

    __slots__ = ()

    def __new__(cls, e_switch: SwitchState, u_switch: SwitchState) -> ElementaryCircuit:
        if e_switch.kind is not SwitchKind.MEMORY:
            raise ValueError("gate E needs a memory switch")
        if u_switch.kind is not SwitchKind.FLIPFLOP:
            raise ValueError("gate U needs a flip-flop switch")
        return super().__new__(cls, e_switch, u_switch)


def new_circuit(bit: Side = Side.LEFT) -> ElementaryCircuit:
    return ElementaryCircuit(
        SwitchState(SwitchKind.MEMORY, bit),
        SwitchState(SwitchKind.FLIPFLOP, bit),
    )


def circuit_enter(circuit: ElementaryCircuit, gate: Gate) -> tuple[CircuitExit, ElementaryCircuit]:
    """Read (enter at E) or write (enter at U) the stored bit."""
    if gate is Gate.E:
        exit_taken, e_after = cross(circuit.e_switch, CrossingMode.ACTIVE)
        out = CircuitExit.O1 if exit_taken is Exit.LEFT else CircuitExit.O2
        return out, ElementaryCircuit(e_after, circuit.u_switch)
    # Entering at U toggles the flip-flop, then the loop track routes the
    # locomotive through the memory switch's currently non-selected arm.
    _, u_after = cross(circuit.u_switch, CrossingMode.ACTIVE)
    _, e_after = cross(circuit.e_switch, CrossingMode.PASSIVE_NONSELECTED)
    return CircuitExit.U_RETURN, ElementaryCircuit(e_after, u_after)
