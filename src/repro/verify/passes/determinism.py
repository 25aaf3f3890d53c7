"""determinism: results are a pure function of (config, workload, seed).

Extends the lint pass's rule family (wall-clock, global-random,
set-iteration) with the hazards that slipped past it in review:

* ``env-read`` — any ``os.environ`` access (subscript, ``.get``,
  passing the mapping around) or ``os.getenv`` inside simulation code
  makes a "pure" run depend on the invoking shell.  Environment reads
  belong at process entry points (the CLI); the sim-side
  exceptions (cache *location*, subprocess env construction) carry
  explicit waivers.
* ``id-ordering`` — ``id()`` values are allocation addresses; keying,
  ordering, or persisting them differs run to run.  Identity *memos*
  that never order or persist are waivable.
* ``unseeded-random`` — ``random.Random()`` with no seed argument and
  ``random.SystemRandom`` pull entropy from the OS.
* ``instance-dict-iteration`` — iterating ``vars(obj)`` /
  ``obj.__dict__`` couples behavior to attribute insertion order, which
  is exactly the unversioned-state hazard ``__slots__`` exists to
  prevent.
* ``entropy-source`` — ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``,
  and the ``secrets`` module draw OS entropy by construction.  The
  adversarial attack generator and leakage oracle
  (``repro.security.attacks``/``oracle``) make this load-bearing: a
  leakage verdict is the claim that two runs differing only in the
  secret bit are bit-identical, which is only meaningful if every
  address and payload derives from the experiment seed.
"""

from __future__ import annotations

import ast
from typing import List

from repro.verify.passes.base import (AnalysisPass, Finding, PassContext,
                                      SourceFile, dotted)

#: packages whose code runs inside (or feeds) a simulation
SIM_PACKAGES = {"core", "mem", "pinning", "security", "isa", "chaos",
                "workloads", "common", "sim"}


class DeterminismPass(AnalysisPass):
    name = "determinism"
    description = ("simulation code must not read the environment, key "
                   "on id(), or draw OS entropy")
    rules = {
        "env-read": "sim code must not read os.environ; configuration "
                    "flows in through SystemConfig",
        "id-ordering": "id() is an allocation address; never order, "
                       "key, or persist it",
        "unseeded-random": "random.Random() needs an explicit seed; "
                           "SystemRandom is never reproducible",
        "instance-dict-iteration": "iterating vars()/__dict__ depends "
                                   "on attribute insertion order",
        "entropy-source": "os.urandom / uuid.uuid1 / uuid.uuid4 / "
                          "secrets.* draw OS entropy; derive values "
                          "from the experiment seed",
    }

    def run(self, ctx: PassContext) -> List[Finding]:
        findings: List[Finding] = []
        for file in ctx.files:
            if file.package not in SIM_PACKAGES or file.tree is None:
                continue
            findings.extend(self._check_file(file))
        return findings

    def _check_file(self, file: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Attribute) \
                    and dotted(node) in ("os.environ", "environ"):
                findings.append(self.finding(
                    file, node, "env-read",
                    f"{dotted(node)} accessed inside sim code; results "
                    f"must not depend on the invoking shell"))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(file, node))
            elif isinstance(node, (ast.For, ast.comprehension)):
                if self._is_instance_dict(node.iter):
                    findings.append(self.finding(
                        file, node.iter, "instance-dict-iteration",
                        f"iteration over {ast.unparse(node.iter)} "
                        f"depends on attribute insertion order"))
        return findings

    def _check_call(self, file: SourceFile,
                    node: ast.Call) -> List[Finding]:
        findings: List[Finding] = []
        name = dotted(node.func)
        if name in ("os.getenv", "getenv"):
            findings.append(self.finding(
                file, node, "env-read",
                f"{name}(...) read inside sim code; results must not "
                f"depend on the invoking shell"))
        elif name == "id":
            findings.append(self.finding(
                file, node, "id-ordering",
                "id() yields an allocation address; keying or ordering "
                "on it varies run to run (waivable for pure identity "
                "memos that are never ordered or persisted)"))
        elif name == "random.Random" and not node.args \
                and not node.keywords:
            findings.append(self.finding(
                file, node, "unseeded-random",
                "random.Random() with no seed draws OS entropy; pass "
                "an explicit seed"))
        elif name in ("random.SystemRandom", "SystemRandom"):
            findings.append(self.finding(
                file, node, "unseeded-random",
                "SystemRandom is OS entropy by design and can never "
                "reproduce; use a seeded random.Random"))
        elif name in ("os.urandom", "urandom", "uuid.uuid1",
                      "uuid.uuid4", "uuid1", "uuid4",
                      "secrets.token_bytes", "secrets.token_hex",
                      "secrets.token_urlsafe", "secrets.randbits",
                      "secrets.randbelow", "secrets.choice",
                      "token_bytes", "token_hex", "token_urlsafe") \
                or (name is not None and name.startswith("secrets.")):
            findings.append(self.finding(
                file, node, "entropy-source",
                f"{name}(...) draws OS entropy inside sim code; every "
                f"address and payload must derive from the experiment "
                f"seed"))
        return findings

    @staticmethod
    def _is_instance_dict(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "vars" and node.args:
            return True
        return isinstance(node, ast.Attribute) \
            and node.attr == "__dict__"
