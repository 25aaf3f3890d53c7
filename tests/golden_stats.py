"""Every counter of a fixed set of simulator cells, pinned in
``GOLDEN_STATS.json`` at the repo root.

A cell is a named (config, workload) pair; its counters are its
``collect_result(...).to_dict()`` without ``config``: cycles, every
per-core pipeline and pinning counter, the memory and network counters,
and the probe timing of attack traces.  ``tests/test_golden_stats.py``
checks every counter of every cell against the file, and names the cell
and counter that moved.

A deliberate behaviour change regenerates the file, so the change shows
up as a line diff in review (one counter per line)::

    PYTHONPATH=src python -m tests.golden_stats

The same cells also feed the cross-tree check: ``--random N --seed S``
prints every counter of N seeded random cells, one per line.  Run it
once against another tree's ``src`` and once against this one and diff
the two outputs; the package path each side imported goes to stderr::

    PYTHONPATH=../base/src python -m tests.golden_stats --random 200 --seed 7

This module imports nothing beyond the standard library and ``repro``
APIs that older trees also have, so it can drive either tree.

Cell names are ``<workload>/<scheme>[/chaos][/lqid7]``:

* ``<workload>`` is ``<spec17 app>@<insns>``, ``<parallel app>@<threads>
  x<insns per thread>`` or ``attack:<class>:s<secret>:seed<k>``;
* ``<scheme>`` is ``unsafe``, a ``scheme_grid`` label (``fence-ep``),
  ``invisi-<comp|lp|ep|spectre>``, or a grid label plus a defense
  mutant (``dom-comp+dom-leaky-miss``);
* ``/chaos`` turns on every fault class (``CHAOS``);
* ``/lqid7`` shrinks the LQ-ID tag to 7 bits, so a pinned run that
  dispatches more than 128 loads wraps the tag and drains (paper §6.2).
  Random draws put it on some pinned cells; the golden cells leave it
  off.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import repro
from repro.common.params import (COMPREHENSIVE, DEFENSE_MUTATIONS,
                                 ChaosConfig, DefenseKind, PinningMode,
                                 SystemConfig, ThreatModel)
from repro.isa.trace import Workload
from repro.security.attacks import (ATTACK_CLASSES, attack_cores,
                                    attack_workload)
from repro.sim.runner import collect_result, scheme_config, scheme_grid
from repro.sim.system import System
from repro.workloads import (PARALLEL_NAMES, SPEC17_NAMES,
                             parallel_workload, spec17_workload)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "GOLDEN_STATS.json"

REGENERATE = "PYTHONPATH=src python -m tests.golden_stats"

#: Every fault class on: jitter+reorder, NACKs, evictions, WB spikes.
CHAOS = ChaosConfig(seed=3, wb_spike_interval=300)

#: The ``/lqid7`` LQ-ID tag width: 128 IDs before a wraparound drain.
LQID7_TAG_BITS = 7

#: The unsafe baseline plus the 12 paper schemes (Tables 2/3).
SCHEMES = ["unsafe", *scheme_grid()]

#: InvisiSpec under each extension: threat model and pinning mode.
INVISI_EXTENSIONS = {
    "comp": (COMPREHENSIVE, PinningMode.NONE),
    "lp": (COMPREHENSIVE, PinningMode.LATE),
    "ep": (COMPREHENSIVE, PinningMode.EARLY),
    "spectre": (ThreatModel.CTRL, PinningMode.NONE),
}
INVISI = [f"invisi-{ext}" for ext in INVISI_EXTENSIONS]

#: Each defense mutant on its family's Comp and EP schemes.
MUTANTS = [f"{mutation.split('-', 1)[0]}-{ext}+{mutation}"
           for mutation in DEFENSE_MUTATIONS for ext in ("comp", "ep")]


def _golden_cells() -> List[str]:
    cells = [f"{app}@2000/{scheme}"
             for app in ("mcf_r", "xz_r", "bwaves_r") for scheme in SCHEMES]
    # the only parallel app whose 8 x 500 runs reach the pin-deferral
    # path (Defer / Clear / Abort / Inv*, write retries, CPT occupancy)
    cells += [f"lu_ncb@8x500/{scheme}" for scheme in SCHEMES]
    cells += [f"mcf_r@2000/{scheme}" for scheme in INVISI + MUTANTS]
    cells += [f"mcf_r@2000/{scheme}/chaos"
              for scheme in ("unsafe", "fence-ep", "stt-lp")]
    cells += [f"attack:{attack}:s1:seed0/unsafe"
              for attack in ATTACK_CLASSES]
    return cells


#: The cells ``GOLDEN_STATS.json`` pins, in file-independent order.
GOLDEN_CELLS = _golden_cells()


def scheme_config_of(scheme: str, base: SystemConfig) -> SystemConfig:
    """``base`` configured for a cell's scheme label (see the module
    docstring for the grammar)."""
    label, _, mutation = scheme.partition("+")
    if label.startswith("invisi-"):
        threat, pinning = INVISI_EXTENSIONS[label[len("invisi-"):]]
        config = base.with_defense(DefenseKind.INVISI, threat, pinning)
    else:
        config = scheme_config(label, base)
    if mutation:
        config = dataclasses.replace(config, defense_mutation=mutation)
    return config


def _workload_of(spec: str) -> Tuple[SystemConfig, Workload]:
    if spec.startswith("attack:"):
        _, attack, secret, seed = spec.split(":")
        workload = attack_workload(attack, int(secret[1:]),
                                   int(seed[len("seed"):]))
        return SystemConfig(num_cores=attack_cores(attack)), workload
    app, size = spec.split("@")
    if "x" in size:
        threads, insns = (int(part) for part in size.split("x"))
        workload = parallel_workload(app, num_threads=threads,
                                     instructions_per_thread=insns)
        return SystemConfig(num_cores=threads), workload
    return SystemConfig(), spec17_workload(app, instructions=int(size))


def with_lqid7(config: SystemConfig) -> SystemConfig:
    """``config`` with the ``/lqid7`` LQ-ID tag width."""
    pinning = dataclasses.replace(config.pinning,
                                  lq_id_tag_bits=LQID7_TAG_BITS)
    return dataclasses.replace(config, pinning=pinning)


def build(name: str) -> Tuple[SystemConfig, Workload]:
    """The (config, workload) pair a cell name stands for."""
    spec, scheme, *rest = name.split("/")
    base, workload = _workload_of(spec)
    config = scheme_config_of(scheme, base)
    if rest[:1] == ["chaos"]:
        config = dataclasses.replace(config, chaos=CHAOS)
        rest = rest[1:]
    if rest[:1] == ["lqid7"]:
        config = with_lqid7(config)
        rest = rest[1:]
    if rest:
        raise ValueError(f"malformed cell name {name!r}")
    return config, workload


def counters(system: System) -> Dict[str, Any]:
    """Every counter of a finished system, JSON-normalized (string
    keys, lists) so it compares equal to its own round trip."""
    doc = collect_result(system).to_dict()
    del doc["config"]
    return json.loads(json.dumps(doc, allow_nan=False))


def run_counters(config: SystemConfig, workload: Workload) -> Dict[str, Any]:
    """Warm, run to completion and collect, as ``run_simulation``."""
    system = System(config, workload)
    system.mem.warm(workload)
    system.run()
    return counters(system)


def cell_counters(name: str) -> Dict[str, Any]:
    return run_counters(*build(name))


def flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    """``{"a": {"b": 1}, "c": [2]}`` -> ``{"a.b": 1, "c.0": 2}``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix[:-1]: doc}
    flat: Dict[str, Any] = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}{key}."))
    return flat


def diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """One line per counter that differs (or exists on one side only)."""
    want = flatten(expected)
    got = flatten(actual)
    absent = "<absent>"
    return [f"{path}: {want.get(path, absent)} -> {got.get(path, absent)}"
            for path in sorted(want.keys() | got.keys())
            if want.get(path, absent) != got.get(path, absent)]


def random_cells(seed: int, count: int) -> List[str]:
    """``count`` cell names drawn from scheme x InvisiSpec x mutants x
    chaos x 1/2/8 threads x attack pairs, with a 7-bit LQ-ID tag on
    some pinned cells."""
    rng = random.Random(seed)
    schemes = SCHEMES + INVISI + MUTANTS
    pinned = {scheme for scheme in schemes
              if scheme_config_of(scheme, SystemConfig()).pinning.mode
              is not PinningMode.NONE}
    cells = []
    for _ in range(count):
        kind = rng.choice(("1", "2", "8", "attack"))
        if kind == "attack":
            spec = (f"attack:{rng.choice(ATTACK_CLASSES)}:"
                    f"s{rng.randrange(2)}:seed{rng.randrange(4)}")
        elif kind == "1":
            spec = f"{rng.choice(SPEC17_NAMES)}@{rng.randrange(300, 1501)}"
        else:
            per_thread = rng.randrange(100, 401) if kind == "8" \
                else rng.randrange(200, 801)
            spec = f"{rng.choice(PARALLEL_NAMES)}@{kind}x{per_thread}"
        chaos = "/chaos" if rng.random() < 0.3 else ""
        scheme = rng.choice(schemes)
        lqid = "/lqid7" if scheme in pinned and rng.random() < 0.3 else ""
        cells.append(f"{spec}/{scheme}{chaos}{lqid}")
    return cells


def regenerate() -> None:
    cells = {name: cell_counters(name) for name in GOLDEN_CELLS}
    doc = {"regenerate": REGENERATE, "cells": cells}
    GOLDEN_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


def print_random(seed: int, count: int) -> None:
    print(f"repro imported from {repro.__file__}", file=sys.stderr)
    for name in random_cells(seed, count):
        for path, value in sorted(flatten(cell_counters(name)).items()):
            print(f"{name} {path} {value!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden_stats",
        description="Rewrite GOLDEN_STATS.json, or print every counter "
                    "of seeded random cells.")
    parser.add_argument("--random", type=int, metavar="N",
                        help="print every counter of N random cells "
                             "instead of rewriting the golden")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.random is None:
        regenerate()
    else:
        print_random(args.seed, args.random)
    return 0


if __name__ == "__main__":
    sys.exit(main())
