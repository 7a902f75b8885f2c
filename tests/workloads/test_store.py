"""Program store: the in-process memo behind ``program_for``, and the checks
a stored program's flat columns pass before anything reads them."""

import math
import pickle
from array import array

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ProgramError
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.behavior import (
    BiasedBehavior,
    DirectionBehavior,
    FixedTarget,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    ZipfTargets,
)
from repro.workloads.builder import ProgramBuilder
from repro.workloads.profiles import SUITE
from repro.workloads.program import OP_LOAD, Program
from repro.workloads.store import program_for
from repro.workloads.tables import BLOCK_COLUMNS, NODE_COLUMNS

SEED = 1
WORKLOAD = "gcc"  # the store path's key; the blobs below hold _zoo()


def test_program_cache_returns_same_object():
    assert program_for("mysql", 1) is program_for("mysql", 1)
    assert program_for("mysql", 1) is not program_for("mysql", 2)


@pytest.mark.parametrize("workload", [profile.name for profile in SUITE])
def test_every_suite_program_flattens(workload):
    program = program_for(workload, SEED)
    assert program.columns.nodes is not None
    assert Program.from_state(program.state()).num_blocks == program.num_blocks


class _Custom(DirectionBehavior):
    def taken(self, occurrence: int) -> bool:
        return occurrence % 3 == 0


def test_storing_an_unflattenable_program_raises():
    """A behaviour the tables cannot hold is refused where the program is
    built, so no such program reaches the store, as columns or as blocks."""
    b = ProgramBuilder()
    head = b.label("head")
    b.place(head)
    b.set_entry()
    b.cond_branch(4, target=head, behavior=_Custom())
    b.block(2, jump_to=head)
    with pytest.raises(ProgramError):
        b.finish()


def _zoo() -> Program:
    """Blocks of every branch family and the node kinds the checks single out."""
    b = ProgramBuilder(base=0x2_0000)
    head, func = b.label("head"), b.label("func")
    cases = [b.label(f"case{i}") for i in range(3)]
    b.place(head)
    b.set_entry()
    b.block(3, ops=bytes([OP_LOAD] * 3))
    b.cond_branch(3, target=head, behavior=BiasedBehavior(7, 0.3))
    b.cond_branch(3, target=head, behavior=PatternBehavior(3, 0b1011, 4, noise=0.1))
    b.cond_branch(3, target=head, behavior=PhasedBehavior(LoopBehavior(3), LoopBehavior(5), 100))
    b.call(2, target=func)
    b.indirect(2, targets=list(cases), behavior=FixedTarget(1))
    b.indirect(2, targets=list(cases), behavior=ZipfTargets(13, 0.5), call=True)
    for case in cases:
        b.place(case)
        b.block(2, jump_to=head)
    b.place(func)
    b.ret(2)
    return b.finish()


def _first(program: Program, column: str, value: int) -> int:
    """The first index of ``value`` in a block or node column."""
    return getattr(program.columns, column).tolist().index(value)


def _put(state: dict, column: str, index: int, value) -> None:
    """Overwrite one item of a block or node column in ``state``'s buffers."""
    names, table = (
        (BLOCK_COLUMNS, "blocks") if column in BLOCK_COLUMNS else (NODE_COLUMNS, "nodes")
    )
    length = len(state[table]) // len(names)
    at = names.index(column) * length + index
    if column == "node_f":
        state[table][at] = array("q", array("d", [value]).tobytes())[0]
    else:
        state[table][at] = value


def _shift(state: dict, by: int) -> None:
    """Move every address of ``state`` by ``by`` bytes."""
    n = len(state["blocks"]) // len(BLOCK_COLUMNS)
    for column in ("addr", "target"):
        for i in range(n):
            at = BLOCK_COLUMNS.index(column) * n + i
            state["blocks"][at] += by
    state["targets"] = array("q", [target + by for target in state["targets"]])
    state["entry"] += by


def _edits(program: Program) -> dict:
    """Edits of a stored state: at least one per check :func:`checked_columns`
    makes, and numbers at the int64 limits."""
    cond = _first(program, "kind", 0)
    jump = _first(program, "kind", 1)
    indirect = _first(program, "kind", 4)
    biased, pattern = _first(program, "node_kind", 1), _first(program, "node_kind", 3)
    phased, fixed = _first(program, "node_kind", 4), _first(program, "node_kind", 5)
    instrs = len(program.columns.ops)
    last = program.num_blocks - 1
    return {
        "gap": lambda s: _put(s, "addr", 1, program.columns.addr[1] + 4),
        "empty-last-block": lambda s: (
            _put(s, "ninstr", last, 0), s.update(ops=s["ops"][: instrs - program.columns.ninstr[last]])
        ),
        "unaligned": lambda s: _shift(s, 2),
        "negative-addresses": lambda s: _shift(s, -program.code_end),
        "past-the-address-space": lambda s: _shift(s, 1 << 48),
        "kind-out-of-range": lambda s: _put(s, "kind", cond, 6),
        "cond-node-out-of-range": lambda s: _put(s, "behavior", cond, len(s["nodes"])),
        "cond-node-negative": lambda s: _put(s, "behavior", cond, -1),
        "cond-on-a-selector": lambda s: _put(s, "behavior", cond, fixed),
        "indirect-on-a-direction": lambda s: _put(s, "behavior", indirect, biased),
        "node-kind-out-of-range": lambda s: _put(s, "node_kind", biased, 9),
        "phased-child-not-earlier": lambda s: _put(s, "node_b", phased, phased),
        "phase-length-zero": lambda s: _put(s, "node_a", phased, 0),
        "pattern-length-zero": lambda s: _put(s, "node_b", pattern, 0),
        "pattern-negative": lambda s: _put(s, "node_a", pattern, -1),
        "fixed-index-out-of-range": lambda s: _put(s, "node_a", fixed, 3),
        "non-finite-f": lambda s: _put(s, "node_f", biased, math.nan),
        "targets-past-the-end": lambda s: _put(s, "targets_off", indirect, len(s["targets"]) - 2),
        "no-targets": lambda s: _put(s, "targets_n", indirect, 0),
        "direct-target-mid-block": lambda s: _put(s, "target", jump, program.code_start + 4),
        "indirect-target-mid-block": lambda s: s["targets"].__setitem__(0, program.code_start + 4),
        "op-byte-missing": lambda s: s.update(ops=s["ops"][: instrs - 1]),
        "truncated-blocks": lambda s: s.update(blocks=s["blocks"][:-1]),
        "padded-blocks": lambda s: s["blocks"].append(0),
        "truncated-nodes": lambda s: s.update(nodes=s["nodes"][:-1]),
        "entry-outside": lambda s: s.update(entry=program.code_end),
        "ops-not-bytes": lambda s: s.update(ops=bytearray(s["ops"])),
        "column-not-int64": lambda s: s.update(targets=array("l", s["targets"])),
        # Numbers at the int64 limits, which Python's integers hold exactly
        # and C must not overflow on (the entry never reaches C).
        "last-block-of-2**61-instructions": lambda s: _put(s, "ninstr", last, 1 << 61),
        "block-address-at-2**63-4": lambda s: _put(s, "addr", 0, (1 << 63) - 4),
        # 4 * ninstr overflows int64, yet the block ends where the next starts.
        "first-block-from--2**63-tiles": lambda s: (
            _put(s, "addr", 0, -(1 << 63)),
            _put(s, "ninstr", 0, (program.columns.addr[1] >> 2) + (1 << 61)),
        ),
        "targets-range-of-2**62": lambda s: (
            _put(s, "targets_off", indirect, 1 << 62), _put(s, "targets_n", indirect, 1 << 62)
        ),
        "phased-child-at--2**63": lambda s: _put(s, "node_b", phased, -(1 << 63)),
        "entry-of-2**70": lambda s: s.update(entry=1 << 70),
    }


EDITS = sorted(_edits(_zoo()))


def _bad_state(program: Program, edit: str) -> tuple:
    entry, blocks, ops, nodes, targets = program.state()
    state = {
        "entry": entry, "blocks": array("q", blocks), "ops": ops,
        "nodes": array("q", nodes), "targets": array("q", targets),
    }
    _edits(program)[edit](state)
    return tuple(state[name] for name in ("entry", "blocks", "ops", "nodes", "targets"))


def test_the_zoo_round_trips_and_runs_from_disk(tmp_path):
    program = _zoo()
    store = program_store.ProgramStore(tmp_path)
    store.store(WORKLOAD, SEED, program)
    loaded = store.load(WORKLOAD, SEED)
    assert loaded.state() == program.state()
    # C (where the kernels build) runs over the buffers read from disk.
    config = SimConfig(max_instructions=2_000, functional_warmup_blocks=100)
    counters = []
    for each in (program, loaded):
        sim = Simulator(each, config)
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.run()
        counters.append(sim.measured_counters())
    assert counters[0] == counters[1]
    assert "blocks" not in vars(loaded) or not sim.compiled_enabled
    assert [block.branch for block in loaded.blocks] == [block.branch for block in program.blocks]


@pytest.mark.parametrize("edit", EDITS)
def test_a_blob_that_fails_a_check_is_a_miss_and_is_rebuilt(tmp_path, monkeypatch, edit):
    program = _zoo()
    bad = _bad_state(program, edit)
    with pytest.raises(ValueError):
        Program.from_state(bad)  # so no Program, and no C descriptor, exists for it
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    store = program_store.ProgramStore()
    path = store.path_for(WORKLOAD, SEED)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(bad, protocol=pickle.HIGHEST_PROTOCOL))
    assert store.load(WORKLOAD, SEED) is None

    built = []
    monkeypatch.setattr(program_store, "synthesize", lambda profile, seed: built.append(1) or program)
    monkeypatch.setattr(program_store, "_MEMO", {})
    rebuilt, source = program_store.get_program(WORKLOAD, SEED)
    assert (rebuilt, source, built) == (program, "built", [1])
    assert pickle.loads(path.read_bytes()) == program.state()  # overwritten
    assert store.load(WORKLOAD, SEED).state() == program.state()
