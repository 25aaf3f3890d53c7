"""Configuration dataclasses for the simulated system.

The defaults mirror Table 1 of the paper, scaled where noted so that the
synthetic workloads exercise the same behaviours at tractable trace lengths.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional

from repro.common.errors import ConfigError

LINE_BYTES = 64
LINE_SHIFT = 6


class ThreatModel(enum.Enum):
    """Threat models (and intermediate VP-condition levels for breakdowns).

    The levels are cumulative: each includes all squash sources of the
    previous one.  ``SPECTRE`` is an alias of ``CTRL`` and ``COMPREHENSIVE``
    an alias of ``MCV`` — named members are provided because the paper uses
    both vocabularies (Figure 1 uses condition levels, the rest threat
    models).
    """

    CTRL = 1          # squashes due to branch mispredictions only (Spectre)
    ALIAS = 2         # + squashes due to memory-dependence aliasing
    EXCEPT = 3        # + squashes due to exceptions
    MCV = 4           # + squashes due to memory consistency violations

    @property
    def level(self) -> int:
        return self.value


SPECTRE = ThreatModel.CTRL
COMPREHENSIVE = ThreatModel.MCV


class PinningMode(enum.Enum):
    """Which Pinned Loads design extends the defense scheme (Table 3)."""

    NONE = "none"     # unmodified scheme (Comp / Spectre columns)
    LATE = "lp"       # Late Pinning
    EARLY = "ep"      # Early Pinning


class DefenseKind(enum.Enum):
    """Baseline hardware defense schemes (Table 2), plus the
    invisible-speculation class the paper's §4 lists as augmentable
    (InvisiSpec-like: pre-VP loads execute invisibly, then validate)."""

    UNSAFE = "unsafe"
    FENCE = "fence"
    DOM = "dom"
    STT = "stt"
    INVISI = "invisi"


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core parameters (Table 1, "Core" row)."""

    width: int = 8                 # fetch/dispatch/issue/retire width
    rob_entries: int = 192
    load_queue_entries: int = 62
    store_queue_entries: int = 32
    write_buffer_entries: int = 16
    branch_resolve_latency: int = 12   # mispredict redirect penalty, cycles
    branch_exec_latency: int = 6       # issue-to-resolution depth for branches
    int_latency: int = 1
    fp_latency: int = 3
    agen_latency: int = 1              # address-generation latency

    def validate(self) -> None:
        if self.width < 1:
            raise ConfigError("core width must be >= 1")
        if self.rob_entries < self.width:
            raise ConfigError("ROB must hold at least one dispatch group")
        for name in ("load_queue_entries", "store_queue_entries",
                     "write_buffer_entries"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True)
class CacheParams:
    """One cache level. Sizes follow Table 1; latencies are round trips."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = LINE_BYTES

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    def validate(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError("cache size not divisible into sets")
        if self.sets & (self.sets - 1):
            raise ConfigError("cache set count must be a power of two")


@dataclass(frozen=True)
class NetworkParams:
    """Ordered mesh interconnect (Table 1: 4x2 mesh, 1 cycle/hop)."""

    mesh_cols: int = 4
    mesh_rows: int = 2
    hop_latency: int = 1

    @property
    def node_count(self) -> int:
        return self.mesh_cols * self.mesh_rows


@dataclass(frozen=True)
class PinnedLoadsParams:
    """Pinned Loads hardware structures (Table 1, bottom rows)."""

    mode: PinningMode = PinningMode.NONE
    l1_cst_entries: int = 12
    l1_cst_records: int = 8
    dir_cst_entries: int = 40
    dir_cst_records: int = 2
    w_d: int = 2                   # reserved dir/LLC lines per slice-set/core
    cpt_entries: int = 4
    lq_id_tag_bits: int = 24
    #: where the pinned-line record lives: "lq" (one Pinned bit per LQ
    #: entry, the paper's chosen design, §6.1.1) or "l1tag" (Pinned bits
    #: in the L1 tags + YPL bits, the §6.1.2 alternative)
    pin_record: str = "lq"
    #: §6.3's advanced CPT: a FIFO of starving writer IDs that reserves
    #: freed CPT entries so a writer can never be shut out forever
    cpt_reservation_queue: bool = False
    # Ablation knobs (not in the paper's default configuration):
    infinite_cst: bool = False     # ideal CST (sensitivity study, §9.2.1)
    ideal_cpt: bool = False        # unbounded CPT (occupancy study, §9.2.2)
    aggressive_tso: bool = True    # oldest ROB load immune to MCV (§3.3)

    def validate(self) -> None:
        if self.w_d < 1:
            raise ConfigError("w_d must be >= 1")
        for name in ("l1_cst_entries", "l1_cst_records", "dir_cst_entries",
                     "dir_cst_records", "cpt_entries"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.pin_record not in ("lq", "l1tag"):
            raise ConfigError(
                f"pin_record must be 'lq' or 'l1tag', not {self.pin_record!r}")


#: Chaos knobs whose mutation deliberately breaks a protocol invariant so
#: the campaign can prove it would catch a real bug (``repro chaos``).
CHAOS_MUTATIONS = ("evict-pinned",)

#: Test-only defense weakenings for the leakage oracle's mutant
#: self-test (``repro attack``): each one disables the very mechanism a
#: scheme relies on to block a covert channel, and a correct oracle MUST
#: flip that scheme's verdict to "leaks".
#:
#: * ``dom-leaky-miss`` — Delay-On-Miss stops delaying: pre-VP loads
#:   issue normally even on an L1 miss, re-opening the cache-fill
#:   channel DOM exists to close.
#: * ``stt-blind-taint`` — STT ignores its taint tracker: tainted-
#:   address loads issue pre-VP, re-opening the secret-dependent-address
#:   channel.
DEFENSE_MUTATIONS = ("dom-leaky-miss", "stt-blind-taint")


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded, deterministic fault injection for the memory system.

    Attached as ``SystemConfig.chaos``, the chaos engine
    (``repro.chaos.engine``) perturbs *timing* — never architectural
    behaviour — so any run with any seed must retire the same
    instruction stream and keep every pin-safety invariant.  All
    randomness is drawn from one ``random.Random(seed)``; a run is a
    pure function of (config, workload) exactly as without chaos.

    * ``msg_jitter`` / ``msg_jitter_prob`` — extra per-message network
      latency of 1..msg_jitter cycles with the given probability, which
      also reorders same-cycle protocol messages (bounded reordering).
    * ``nack_prob`` — the directory NACKs an incoming read/write with
      this probability; the requestor retries after an exponential
      backoff of ``nack_backoff * 2^attempt`` capped at
      ``nack_backoff_cap``, and is always admitted after ``max_nacks``
      consecutive NACKs (no livelock).
    * ``evict_interval`` — every N cycles, force-evict one random
      resident *unpinned* line (alternating L1 victim / LLC
      back-invalidation paths, exactly the paths Pinned Loads must deny
      for pinned lines).
    * ``wb_spike_interval`` / ``wb_spike_duration`` — periodically make
      one core's write buffer report itself full, stalling store retire
      and shrinking the pinning precondition window (§5.1.2).
    * ``mutate`` — campaign self-test: "evict-pinned" lets the forced
      eviction target pinned lines, which a correct sanitizer/campaign
      MUST flag.
    """

    seed: int = 0
    msg_jitter: int = 3
    msg_jitter_prob: float = 0.25
    nack_prob: float = 0.05
    nack_backoff: int = 8
    nack_backoff_cap: int = 256
    max_nacks: int = 6
    evict_interval: int = 200
    wb_spike_interval: int = 0
    wb_spike_duration: int = 50
    mutate: str = ""

    def validate(self) -> None:
        for name in ("msg_jitter_prob", "nack_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], not {value}")
        for name in ("msg_jitter", "evict_interval", "wb_spike_interval",
                     "wb_spike_duration"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("nack_backoff", "nack_backoff_cap", "max_nacks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.mutate and self.mutate not in CHAOS_MUTATIONS:
            raise ConfigError(
                f"unknown chaos mutation {self.mutate!r}; "
                f"choose from {CHAOS_MUTATIONS}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated machine."""

    num_cores: int = 1
    core: CoreParams = field(default_factory=CoreParams)
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(size_bytes=32 * 1024, ways=8,
                                            latency=2))
    llc_slice: CacheParams = field(
        default_factory=lambda: CacheParams(size_bytes=2 * 1024 * 1024,
                                            ways=16, latency=8))
    network: NetworkParams = field(default_factory=NetworkParams)
    dram_latency: int = 100        # 50 ns RT at 2 GHz
    defense: DefenseKind = DefenseKind.UNSAFE
    threat_model: ThreatModel = COMPREHENSIVE
    pinning: PinnedLoadsParams = field(default_factory=PinnedLoadsParams)
    write_retry_latency: int = 20  # backoff before a deferred write retries
    l1_prefetch: bool = True       # next-line L1 prefetcher (Table 1)
    deadlock_cycles: int = 200_000
    #: Opt-in runtime invariant sanitizer (``repro.verify.sanitizer``).
    #: Instruments the memory system, cores, and pinning controllers and
    #: raises ``InvariantViolation`` on any broken invariant.  Costs
    #: simulation speed; must stay False for performance measurements.
    sanitize: bool = False
    #: Opt-in deterministic fault injection (``repro.chaos``).  ``None``
    #: leaves every hot path untouched; a ``ChaosConfig`` perturbs
    #: timing (jitter, NACKs, forced evictions, write-buffer spikes)
    #: without changing architectural outcomes.
    chaos: Optional[ChaosConfig] = None
    #: Test-only defense weakening (``DEFENSE_MUTATIONS``) for the
    #: leakage oracle's mutant self-test, valid only on the defense its
    #: prefix names.  Empty in every real configuration; a mutated
    #: defense runs the engine's always-eligible issue loop, which is
    #: exactly what both weakenings amount to.
    defense_mutation: str = ""

    @property
    def num_slices(self) -> int:
        return self.network.node_count

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("need at least one core")
        if self.num_cores > self.network.node_count:
            raise ConfigError("more cores than mesh nodes")
        self.core.validate()
        self.l1d.validate()
        self.llc_slice.validate()
        self.pinning.validate()
        if self.chaos is not None:
            self.chaos.validate()
        if self.defense_mutation:
            if self.defense_mutation not in DEFENSE_MUTATIONS:
                raise ConfigError(
                    f"unknown defense mutation {self.defense_mutation!r}; "
                    f"choose from {DEFENSE_MUTATIONS}")
            family = self.defense_mutation.split("-", 1)[0]
            if family != self.defense.value:
                raise ConfigError(
                    f"defense mutation {self.defense_mutation!r} weakens "
                    f"{family}, not {self.defense.value}")
        if (self.pinning.mode is not PinningMode.NONE
                and self.threat_model is not COMPREHENSIVE):
            raise ConfigError(
                "pinning only applies under the Comprehensive threat model")

    def with_defense(self, defense: DefenseKind,
                     threat_model: ThreatModel = COMPREHENSIVE,
                     pinning_mode: PinningMode = PinningMode.NONE,
                     ) -> "SystemConfig":
        """Return a copy configured for one (scheme, extension) cell of
        Tables 2/3 — e.g. ``cfg.with_defense(DefenseKind.STT,
        pinning_mode=PinningMode.EARLY)`` is the STT-EP configuration."""
        pinning = replace(self.pinning, mode=pinning_mode)
        return replace(self, defense=defense, threat_model=threat_model,
                       pinning=pinning)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict representation (see ``from_dict``).

        Enum members are flattened to their values/names so the dict is
        canonical: two equal configs always produce the same dict.  Used
        by the persistent experiment cache to key results on disk."""
        data = asdict(self)
        data["defense"] = self.defense.value
        data["threat_model"] = self.threat_model.name
        data["pinning"]["mode"] = self.pinning.mode.value
        if not data["defense_mutation"]:
            # dropped when unset so every pre-existing config keeps its
            # canonical dict (and therefore its experiment cache keys)
            del data["defense_mutation"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from ``to_dict`` output."""
        data = dict(data)
        data["core"] = CoreParams(**data["core"])
        data["l1d"] = CacheParams(**data["l1d"])
        data["llc_slice"] = CacheParams(**data["llc_slice"])
        data["network"] = NetworkParams(**data["network"])
        pinning = dict(data["pinning"])
        pinning["mode"] = PinningMode(pinning["mode"])
        data["pinning"] = PinnedLoadsParams(**pinning)
        data["defense"] = DefenseKind(data["defense"])
        data["threat_model"] = ThreatModel[data["threat_model"]]
        if data.get("chaos") is not None:
            data["chaos"] = ChaosConfig(**data["chaos"])
        data.setdefault("defense_mutation", "")
        return cls(**data)
