"""Adversarial attack-trace generator for the leakage oracle.

Each attack class builds a *pair* of workloads that are identical except
for one secret bit: the address of a single transient (wrong-path) load.
The leakage oracle (``repro.security.oracle``) runs both variants under
one scheme and diffs every timing-observable channel; a defense blocks
the attack exactly when the two runs are bit-identical.

The four classes map to the covert channels the Pinned Loads threat
model (paper §2) and the speculative-interference literature care about:

* ``prime_probe`` — the classic transient cache-fill channel: a guarded
  load whose address is secret-dependent misses in L1, and the fill is
  installed even though the load is squashed.  An architectural probe of
  the candidate line afterwards reads the secret as hit-vs-miss latency.
  The transient address is *tainted* (derived from a transient root
  load) and *cold*, so every defense scheme blocks it: Fence stalls all
  pre-VP loads, Delay-On-Miss stalls the miss, STT stalls the tainted
  address.
* ``secret_reg`` — the same fill channel, but the transient address is
  computed by a pure register (INT_ALU) chain carrying no load-derived
  data.  STT's taint tracker sees nothing to stall, so STT *leaks by
  design* here — the residual channel the paper's Table 2 footnotes and
  the speculative-interference work exploit.  DOM still stalls the miss
  and Fence stalls everything.
* ``lru_probe`` — a replacement-state channel with deliberately
  symmetric hit/miss *counts*: the transient load touches one of two
  already-resident lines in a full L1 set, reordering LRU only.  An
  architectural eviction afterwards picks a secret-dependent victim,
  which only the per-probe timing channel can see.  Delay-On-Miss
  permits pre-VP *hits* — and a hit updates LRU — so DOM leaks here;
  STT stalls the tainted address, Fence stalls everything.
* ``xcore_covert`` — a cross-core covert channel: the transient fill on
  the transmitter core changes directory/LLC state that a receiver core
  observes through its own architectural probe latency and network
  traffic.  Tainted and cold, so every defense blocks it.

All randomness comes from one ``random.Random`` seeded by (attack
class, seed): a generated workload is a pure function of its name.
Cache-set choices are restricted to *even* L1 set indices so that no
two lines of interest are ever numerically adjacent — the next-line
prefetcher can then never install one candidate while fetching another.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.common.params import LINE_SHIFT, SystemConfig
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass

#: The attack classes of the leakage campaign, in matrix order.
ATTACK_CLASSES = ("prime_probe", "secret_reg", "lru_probe", "xcore_covert")

_L1_SETS = 64          # 32 KiB / 8 ways / 64 B lines (Table 1)
_L1_WAYS = 8
#: Architectural delay chain between guard resolution and the probes:
#: long enough that an in-flight transient fill has landed before any
#: probe issues, short enough to keep traces tiny.
_DELAY_CHAIN = 20
#: Receiver-side delay (dependent INT uops) for the cross-core channel:
#: must exceed the transmitter's transient-fill latency (~125 cycles).
_RECEIVER_DELAY = 260


class _AttackTraceBuilder:
    """Explicit-index uop assembly, mirroring ``repro.workloads``."""

    __slots__ = ("uops",)

    def __init__(self) -> None:
        self.uops: List[MicroOp] = []

    def _add(self, opclass: OpClass, deps: Tuple[int, ...] = (),
             addr: Optional[int] = None, mispredicted: bool = False,
             guard: Optional[int] = None, probe: bool = False) -> int:
        index = len(self.uops)
        self.uops.append(MicroOp(index, opclass, deps=deps, addr=addr,
                                 mispredicted=mispredicted, guard=guard,
                                 probe=probe))
        return index

    def load(self, line: int, deps: Tuple[int, ...] = (),
             guard: Optional[int] = None, probe: bool = False) -> int:
        return self._add(OpClass.LOAD, deps=deps, addr=line << LINE_SHIFT,
                         guard=guard, probe=probe)

    def int_alu(self, deps: Tuple[int, ...] = (),
                guard: Optional[int] = None) -> int:
        return self._add(OpClass.INT_ALU, deps=deps, guard=guard)

    def mispredicted_branch(self, deps: Tuple[int, ...]) -> int:
        return self._add(OpClass.BRANCH, deps=deps, mispredicted=True)

    def int_chain(self, length: int, first_dep: int) -> int:
        """A dependent INT chain; returns the index of its last uop."""
        last = self.int_alu(deps=(first_dep,))
        for _ in range(length - 1):
            last = self.int_alu(deps=(last,))
        return last


def _pick_lines(rng: random.Random, count: int) -> List[int]:
    """``count`` cache lines in distinct even L1 sets.

    Distinct sets keep the lines from conflicting in the L1; even sets
    keep any two lines' numbers at an even distance, so neither is ever
    the other's next-line prefetch target.
    """
    sets = rng.sample(range(2, _L1_SETS, 2), count)
    return [s + _L1_SETS * rng.randrange(1, 4) for s in sets]


def _prime_probe(rng: random.Random, secret: int) -> List[MicroOp]:
    # hot (root), guard source, probed candidate, decoy candidate
    hot, guard_line, candidate, decoy = _pick_lines(rng, 4)
    b = _AttackTraceBuilder()
    b.load(hot)                       # makes `hot` warm (re-read by probe)
    guard_src = b.load(guard_line)    # cold: opens a ~120-cycle window
    guard = b.mispredicted_branch(deps=(guard_src,))
    root = b.load(hot, guard=guard)   # transient root: L1 hit, completes fast
    # the secret-dependent transient access: tainted (address derived
    # from the root load) and cold either way, so every scheme stalls it
    b.load(candidate if secret else decoy, deps=(root,), guard=guard)
    chain = b.int_chain(_DELAY_CHAIN, first_dep=guard)
    b.load(candidate, deps=(chain,), probe=True)
    b.load(hot, deps=(chain,), probe=True)      # control probe: always hits
    return b.uops


def _secret_reg(rng: random.Random, secret: int) -> List[MicroOp]:
    hot, guard_line, candidate, decoy = _pick_lines(rng, 4)
    b = _AttackTraceBuilder()
    b.load(hot)
    guard_src = b.load(guard_line)
    guard = b.mispredicted_branch(deps=(guard_src,))
    # the address comes from a pure INT chain: no load in its backward
    # slice, so STT's taint tracker has nothing to stall
    reg = b.int_alu(guard=guard)
    b.load(candidate if secret else decoy, deps=(reg,), guard=guard)
    chain = b.int_chain(_DELAY_CHAIN, first_dep=guard)
    b.load(candidate, deps=(chain,), probe=True)
    b.load(hot, deps=(chain,), probe=True)
    return b.uops


def _lru_probe(rng: random.Random, secret: int) -> List[MicroOp]:
    attack_set, hot_set, guard_set = rng.sample(range(2, _L1_SETS, 2), 3)
    resident = [attack_set + _L1_SETS * k for k in range(_L1_WAYS)]
    evictor = attack_set + _L1_SETS * _L1_WAYS
    hot = hot_set + _L1_SETS * rng.randrange(1, 4)
    guard_line = guard_set + _L1_SETS * rng.randrange(1, 4)
    b = _AttackTraceBuilder()
    # prime: fill the attack set completely.  resident[0]/resident[1]
    # are re-read by the probes, so warm-up makes them hit immediately
    # and establishes them as the two LRU-oldest lines of the set.
    for line in resident:
        b.load(line)
    b.load(hot)
    guard_src = b.load(guard_line)
    guard = b.mispredicted_branch(deps=(guard_src,))
    root = b.load(hot, guard=guard)
    # the transient touch: an L1 *hit* on one of the two oldest lines.
    # No fill, no miss — only the set's LRU order changes.  DOM permits
    # pre-VP hits, so this is exactly DOM's residual channel.
    b.load(resident[secret], deps=(root,), guard=guard)
    chain = b.int_chain(_DELAY_CHAIN, first_dep=guard)
    # architectural eviction: a ninth line in the full set evicts the
    # current LRU victim — resident[1] if the transient touch refreshed
    # resident[0], resident[0] otherwise
    evict = b.load(evictor, deps=(chain,))
    b.load(resident[0], deps=(evict,), probe=True)
    b.load(resident[1], deps=(evict,), probe=True)
    b.load(hot, deps=(evict,), probe=True)      # control probe
    return b.uops


def _xcore_covert(rng: random.Random,
                  secret: int) -> Tuple[List[MicroOp], List[MicroOp]]:
    hot, guard_line, shared, decoy = _pick_lines(rng, 4)
    tx = _AttackTraceBuilder()
    tx.load(hot)
    guard_src = tx.load(guard_line)
    guard = tx.mispredicted_branch(deps=(guard_src,))
    root = tx.load(hot, guard=guard)
    tx.load(shared if secret else decoy, deps=(root,), guard=guard)
    tx.load(hot, deps=(guard,), probe=True)
    rx = _AttackTraceBuilder()
    # the receiver idles through a dependent INT chain long enough for
    # the transmitter's transient fill to land, then probes the shared
    # line: owner-forward latency if it was filled, DRAM if not
    first = rx.int_alu()
    last = rx.int_chain(_RECEIVER_DELAY, first_dep=first)
    rx.load(shared, deps=(last,), probe=True)
    return tx.uops, rx.uops


def attack_workload(attack: str, secret: int, seed: int = 0) -> Workload:
    """Build one variant of an attack pair.

    The workload *name* deliberately omits the secret — the two variants
    of a pair produce directly comparable result documents, and their
    experiment-cache identities differ through the content fingerprint
    alone.
    """
    if attack not in ATTACK_CLASSES:
        raise ValueError(f"unknown attack class {attack!r}; choose from "
                         f"{ATTACK_CLASSES}")
    if secret not in (0, 1):
        raise ValueError(f"secret must be 0 or 1, not {secret!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    rng = random.Random((seed << 4) ^ ATTACK_CLASSES.index(attack))
    name = f"attack:{attack}:seed{seed}"
    if attack == "xcore_covert":
        tx, rx = _xcore_covert(rng, secret)
        traces = [Trace(tx, name=f"{name}:tx"),
                  Trace(rx, name=f"{name}:rx")]
    else:
        builders = {"prime_probe": _prime_probe, "secret_reg": _secret_reg,
                    "lru_probe": _lru_probe}
        traces = [Trace(builders[attack](rng, secret), name=name)]
    return Workload(traces, name=name)


def attack_cores(attack: str) -> int:
    return 2 if attack == "xcore_covert" else 1


def attack_cell(attack: str, secret: int, seed: int,
                scheme: str) -> Tuple[SystemConfig, Workload]:
    """The (config, workload) cell for one attack variant under one
    scheme — the attack-side analogue of ``repro.sim.runner.build_cell``
    (which routes ``attack:...`` workload names here)."""
    from repro.sim.runner import scheme_config
    workload = attack_workload(attack, secret, seed)
    base = SystemConfig(num_cores=attack_cores(attack))
    return scheme_config(scheme, base), workload
