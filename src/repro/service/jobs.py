"""Job specifications: the wire/journal form of one simulation cell.

A ``JobSpec`` names an experiment the way the CLI does — workload name,
instruction count, thread count, scheme label, optional sanitize/chaos
settings — rather than carrying pickled objects, so the same spec can
cross the HTTP boundary, live in the journal, and be replayed by a
service incarnation that shares nothing with the submitter but the
code.  ``resolve()`` deterministically rebuilds the exact
``(SystemConfig, Workload)`` pair, and the job's identity is the
executor's content-addressed ``cache_key`` over that pair — which is
what makes submission idempotent: two specs that resolve to the same
experiment are the same job, whatever their display names.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import BadRequestError, ConfigError
from repro.common.params import ChaosConfig, SystemConfig
from repro.isa.trace import Workload
from repro.sim.executor import cache_key
from repro.sim.runner import scheme_config
from repro.workloads import (PARALLEL_NAMES, SPEC17_NAMES,
                             parallel_workload, spec17_workload)

#: Priority conventions (lower is more urgent): interactive ``repro
#: submit`` requests land ahead of bulk sweep/campaign cells.
PRIORITY_INTERACTIVE = 0
PRIORITY_DEFAULT = 5
PRIORITY_BULK = 10


def _build_attack_cell(workload_name: str,
                       scheme: str) -> Tuple[SystemConfig, Workload]:
    """Resolve an ``attack:<class>:s<secret>:seed<k>`` workload name.

    Attack variants are fixed-content adversarial traces
    (``repro.security.attacks``): the name pins everything, so the
    spec's ``instructions``/``threads`` knobs do not apply (they are
    deliberately ignored — the cache identity is content-addressed and
    two specs naming the same variant share one job regardless).
    """
    from repro.security.attacks import attack_cell
    parts = workload_name.split(":")
    usage = ("attack workload names look like "
             "'attack:<class>:s<0|1>:seed<k>'")
    if len(parts) != 4 or not parts[2].startswith("s") \
            or not parts[3].startswith("seed"):
        raise BadRequestError(f"malformed workload {workload_name!r}; "
                              f"{usage}")
    try:
        secret = int(parts[2][1:])
        seed = int(parts[3][len("seed"):])
    except ValueError:
        raise BadRequestError(f"malformed workload {workload_name!r}; "
                              f"{usage}")
    try:
        return attack_cell(parts[1], secret, seed, scheme)
    except ValueError as err:
        raise BadRequestError(str(err))


def build_cell(workload_name: str, instructions: int, threads: int,
               scheme: str) -> Tuple[SystemConfig, Workload]:
    """Deterministically build one (config, workload) cell from names.

    The single source of truth for turning CLI/service-level cell names
    into simulator objects — `repro run`, the chaos campaign, the attack
    campaign, and the job service all resolve cells through here.
    """
    if workload_name.startswith("attack:"):
        return _build_attack_cell(workload_name, scheme)
    if workload_name in SPEC17_NAMES:
        base: SystemConfig = SystemConfig()
        workload = spec17_workload(workload_name,
                                   instructions=instructions)
    elif workload_name in PARALLEL_NAMES:
        workload = parallel_workload(workload_name, num_threads=threads,
                                     instructions_per_thread=instructions)
        base = SystemConfig(num_cores=threads)
    else:
        raise BadRequestError(f"unknown workload {workload_name!r}; "
                              f"see `repro workloads`")
    try:
        return scheme_config(scheme, base), workload
    except ValueError as err:
        raise BadRequestError(str(err)) from err


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One submittable simulation job (JSON-serializable, validated)."""

    workload: str
    scheme: str = "unsafe"
    instructions: int = 4000
    threads: int = 8
    sanitize: bool = False
    chaos: Optional[Dict[str, Any]] = None
    priority: int = PRIORITY_DEFAULT

    def validate(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise BadRequestError("workload must be a non-empty string")
        if not isinstance(self.scheme, str) or not self.scheme:
            raise BadRequestError("scheme must be a non-empty string")
        for name in ("instructions", "threads", "priority"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequestError(f"{name} must be an integer, "
                                      f"not {value!r}")
        if self.instructions < 1:
            raise BadRequestError("instructions must be >= 1")
        if self.threads < 1:
            raise BadRequestError("threads must be >= 1")
        if not isinstance(self.sanitize, bool):
            raise BadRequestError("sanitize must be a boolean")
        if self.chaos is not None and not isinstance(self.chaos, dict):
            raise BadRequestError("chaos must be an object of "
                                  "ChaosConfig fields")

    def to_doc(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        if doc["chaos"] is None:
            del doc["chaos"]
        return doc

    @classmethod
    def from_doc(cls, doc: Any) -> "JobSpec":
        if not isinstance(doc, dict):
            raise BadRequestError(f"job spec must be a JSON object, "
                                  f"not {type(doc).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise BadRequestError(f"unknown job spec field(s): "
                                  f"{', '.join(unknown)}")
        if "workload" not in doc:
            raise BadRequestError("job spec needs a 'workload' field")
        spec = cls(**doc)
        spec.validate()
        return spec

    def resolve(self) -> Tuple[SystemConfig, Workload]:
        """The exact (config, workload) pair this spec names; raises
        ``BadRequestError`` for anything the simulator would refuse."""
        self.validate()
        config, workload = build_cell(self.workload, self.instructions,
                                      self.threads, self.scheme)
        replacements: Dict[str, Any] = {}
        if self.sanitize:
            replacements["sanitize"] = True
        if self.chaos is not None:
            try:
                chaos = ChaosConfig(**self.chaos)
                chaos.validate()
            except (TypeError, ConfigError) as err:
                raise BadRequestError(f"bad chaos settings: {err}")
            replacements["chaos"] = chaos
        if replacements:
            config = dataclasses.replace(config, **replacements)
        return config, workload

    def job_id(self) -> str:
        """Content-addressed job identity: the executor ``cache_key`` of
        the resolved experiment, so identical experiments submitted
        under different names deduplicate to one job."""
        return cache_key(*self.resolve())

    def describe(self) -> str:
        tag = f"{self.workload}/{self.scheme}/{self.instructions}"
        if self.sanitize:
            tag += "/sanitized"
        if self.chaos is not None:
            tag += f"/chaos-seed{self.chaos.get('seed', 0)}"
        return tag
