"""A stored program's load checks: the C checker against the Python one.

``checked_columns`` checks a program's format in Python and the rest in C
(``check_columns``) wherever the kernels build, in Python otherwise; both
make the same checks in the same order and raise from one message table.
Every store edit (``test_store._edits``), every suite and micro program,
and random words written over the zoo program's buffers must get the same
verdict and message from both.  Where the kernels do not build, only the
Python half runs.  Tier-1 draws a derandomized 25 random words; ``-m slow``
draws 500 more.
"""

from __future__ import annotations

import inspect
import os
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_store import EDITS, _bad_state, _zoo

from repro.common import cc
from repro.workloads import micro
from repro.workloads.profiles import SUITE
from repro.workloads.store import program_for
from repro.workloads.tables import checked_columns

INT64_RANGE = range(-(1 << 63), 1 << 63)
INT64 = st.integers(INT64_RANGE.start, INT64_RANGE.stop - 1)


def _message(state: tuple) -> str:
    """``checked_columns``' message for ``state``; empty when it passes."""
    try:
        checked_columns(*state)
    except ValueError as exc:
        return str(exc)
    return ""


def _messages(state: tuple) -> tuple[str | None, str]:
    """The C checker's message (None without kernels) and the Python one's."""
    compiled = _message(state) if cc.kernels() is not None else None
    with mock.patch.dict(os.environ, {cc.NO_COMPILED_ENV: "1"}):
        python = _message(state)
    return compiled, python


def _one_message(state: tuple) -> str:
    """The Python checker's message for ``state``, which the C one's equals."""
    compiled, python = _messages(state)
    if compiled is not None:
        assert compiled == python
    return python


@pytest.mark.parametrize("edit", EDITS)
def test_every_edit_gets_one_message_from_both_checkers(edit):
    assert _one_message(_bad_state(_zoo(), edit)), f"{edit} passed the checks"


def _passes_both(program) -> None:
    calls = cc.kernel_call_counts().get("check_columns", 0)
    compiled, python = _messages(program.state())
    assert python == ""
    if compiled is not None:
        assert compiled == ""
        assert cc.kernel_call_counts()["check_columns"] == calls + 1


MICRO = [
    name for name in micro.__all__
    if inspect.isfunction(getattr(micro, name)) and getattr(micro, name).__module__ == micro.__name__
]
# The arguments of the micro programs that have no defaults.
MICRO_ARGS = {"counted_loop": (5,), "pattern_diamond": (0b1011, 4)}


@pytest.mark.parametrize("workload", [profile.name for profile in SUITE])
def test_every_suite_program_passes_both_checkers(workload):
    _passes_both(program_for(workload, 1))


@pytest.mark.parametrize("name", MICRO)
def test_every_micro_program_passes_both_checkers(name):
    _passes_both(getattr(micro, name)(*MICRO_ARGS.get(name, ())))


@st.composite
def _one_word_edits(draw) -> tuple:
    """The zoo program's state with one word of its block, node or target
    buffer set to a random int64."""
    entry, blocks, ops, nodes, targets = _zoo().state()
    blocks, nodes, targets = (array("q", buf) for buf in (blocks, nodes, targets))
    buffer = draw(st.sampled_from((blocks, nodes, targets)))
    at = draw(st.integers(0, len(buffer) - 1))
    # Any int64, or one near the word's own, which reaches the later checks.
    nearby = st.integers(-64, 64).map(lambda delta: buffer[at] + delta).filter(INT64_RANGE.__contains__)
    buffer[at] = draw(st.one_of(INT64, nearby))
    return entry, blocks, ops, nodes, targets


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_one_word_edits())
def test_a_random_word_gets_one_verdict_from_both_checkers(state):
    _one_message(state)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(_one_word_edits())
def test_a_random_word_gets_one_verdict_from_both_checkers_slow(state):
    _one_message(state)
