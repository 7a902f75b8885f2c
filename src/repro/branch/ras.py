"""Return address stack (RAS) with overflow wrap and recovery.

The decoupled frontend pushes speculatively on every predicted call and pops
on every predicted return, so the RAS can be corrupted by wrong-path
calls/returns.  On a pipeline flush the simulator repairs the RAS from the
oracle's true call stack (the standard "perfect repair" approximation of
checkpointed hardware RAS recovery, noted in DESIGN.md).
"""

from __future__ import annotations


class ReturnAddressStack:
    """A bounded stack; pushing past capacity overwrites the oldest entry."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._stack: list[int] = []
        self.overflows = 0
        self.underflows = 0

    def push(self, return_addr: int) -> None:
        """Push a predicted return address."""
        if len(self._stack) >= self.capacity:
            del self._stack[0]
            self.overflows += 1
        self._stack.append(return_addr)

    def pop(self) -> int | None:
        """Pop the predicted return target; None when empty (underflow)."""
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def peek(self) -> int | None:
        """Top of stack without popping."""
        return self._stack[-1] if self._stack else None

    def repair(self, true_stack: list[int]) -> None:
        """Replace contents with the (bounded suffix of the) true call stack."""
        self._stack = list(true_stack[-self.capacity:])

    def __len__(self) -> int:
        return len(self._stack)

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """The stack (oldest first) and the overflow and underflow counts."""
        return {
            "stack": list(self._stack),
            "overflows": self.overflows,
            "underflows": self.underflows,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output, validated first: the compiled
        driver copies the stack into a ``capacity``-entry buffer."""
        stack, overflows, underflows = state["stack"], state["overflows"], state["underflows"]
        if len(stack) > self.capacity or not all(
            type(value) is int for value in (*stack, overflows, underflows)
        ):
            raise ValueError(f"RAS state is not {self.capacity} or fewer entries, two counts")
        self._stack = list(stack)
        self.overflows = overflows
        self.underflows = underflows

    def copy_from(self, other: "ReturnAddressStack") -> None:
        """Take a same-capacity stack's entries and counts, by direct copy."""
        self._stack = list(other._stack)
        self.overflows = other.overflows
        self.underflows = other.underflows
