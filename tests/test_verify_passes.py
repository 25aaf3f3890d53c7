"""The static analysis framework: each pass detects a seeded mutation
of the real sources (the repo's self-test idiom — a checker that cannot
find a planted bug is theater), HEAD analyzes clean, and the shared
driver machinery (waiver audit, baseline, fingerprints, JSON report)
round-trips.
"""

import json
import time
from pathlib import Path

from repro.verify.passes import (Report, analyze_paths, canonical_path,
                                 package_of, write_baseline)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def copy_tree(tmp_path, *relatives):
    """Copy ``src/repro/<rel>`` files into ``tmp/repro/<rel>`` so the
    canonical-path/package machinery sees them as repro modules."""
    for rel in relatives:
        dst = tmp_path / "repro" / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text((SRC / rel).read_text())
    return tmp_path / "repro"


def rules_of(report):
    return [f.rule for f in report.findings]


def analyze_clean(paths, **kw):
    kw.setdefault("baseline_path", "/nonexistent-baseline.json")
    return analyze_paths(paths, **kw)


class TestFrameworkBasics:
    def test_canonical_path_strips_to_repro(self):
        assert canonical_path("/work/src/repro/core/pipeline.py") \
            == "repro/core/pipeline.py"
        assert canonical_path("src/repro/cli.py") == "repro/cli.py"
        assert canonical_path("/tmp/x/scratch.py") == "scratch.py"

    def test_package_of(self):
        assert package_of("src/repro/core/pipeline.py") == "core"
        assert package_of("src/repro/cli.py") == ""
        assert package_of("/tmp/loose.py") == ""

    def test_fingerprints_stable_across_checkouts(self, tmp_path):
        source = "import time\nt = time.time()\n"
        prints = []
        for root in ("checkout_a", "checkout_b/nested"):
            base = tmp_path / root / "repro" / "sim"
            base.mkdir(parents=True)
            (base / "mod.py").write_text(source)
            report = analyze_clean([tmp_path / root])
            (finding,) = report.findings
            prints.append(finding.fingerprint)
        assert prints[0] == prints[1]
        assert len(prints[0]) == 16

    def test_identical_lines_get_distinct_fingerprints(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\n"
                       "a = time.time()\n"
                       "a = time.time()\n")
        report = analyze_clean([tmp_path])
        prints = {f.fingerprint for f in report.findings}
        assert len(report.findings) == 2
        assert len(prints) == 2

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_clean([bad])
        assert rules_of(report) == ["parse-error"]
        assert not report.clean

    def test_report_json_round_trip(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        report = analyze_clean([dirty])
        doc = json.loads(json.dumps(report.to_doc()))
        again = Report.from_doc(doc)
        assert again.to_doc() == report.to_doc()
        assert [f.rule for f in again.errors] == ["wall-clock"]
        assert doc["version"] == 1
        assert doc["summary"]["errors"] == 1


class TestWaiverAudit:
    def test_waiver_suppresses_only_its_line_and_rule(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import time\n"
                       "a = time.time()  # repro: allow-wall-clock\n"
                       "b = time.time()\n")
        report = analyze_clean([mod])
        assert [f.line for f in report.findings
                if f.rule == "wall-clock"] == [3]

    def test_unknown_rule_waiver_is_an_error(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: allow-made-up-rule\n")
        report = analyze_clean([mod])
        (finding,) = report.findings
        assert finding.rule == "unknown-waiver"
        assert finding.severity == "error"
        assert not report.clean

    def test_stale_waiver_is_a_warning(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: allow-wall-clock\n")
        report = analyze_clean([mod])
        (finding,) = report.findings
        assert finding.rule == "stale-waiver"
        assert finding.severity == "warning"
        assert report.clean  # warnings do not gate

    def test_docstring_mention_is_not_a_waiver(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text('"""Docs: use `# repro: allow-wall-clock`."""\n'
                       "x = 1\n")
        report = analyze_clean([mod])
        assert report.findings == []

    def test_waivers_of_skipped_passes_are_not_stale(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: allow-wall-clock\n")
        report = analyze_clean([mod], passes=["determinism"])
        assert report.findings == []


class TestBaseline:
    def test_baselined_finding_does_not_gate(self, tmp_path):
        dirty = tmp_path / "repro" / "sim" / "mod.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\nt = time.time()\n")
        first = analyze_clean([tmp_path])
        assert not first.clean
        baseline = tmp_path / "baseline.json"
        write_baseline(first.errors, baseline)
        second = analyze_paths([tmp_path], baseline_path=baseline)
        assert second.clean
        assert [f.baselined for f in second.findings] == [True]

    def test_new_finding_still_fails_against_baseline(self, tmp_path):
        dirty = tmp_path / "repro" / "sim" / "mod.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\nt = time.time()\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(analyze_clean([tmp_path]).errors, baseline)
        dirty.write_text("import time\nt = time.time()\n"
                         "u = time.perf_counter()\n")
        report = analyze_paths([tmp_path], baseline_path=baseline)
        assert not report.clean
        assert len(report.errors) == 1

    def test_stale_baseline_entries_are_counted(self, tmp_path):
        dirty = tmp_path / "repro" / "sim" / "mod.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\nt = time.time()\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(analyze_clean([tmp_path]).errors, baseline)
        dirty.write_text("t = 0\n")  # violation fixed
        report = analyze_paths([tmp_path], baseline_path=baseline)
        assert report.clean
        assert report.stale_baseline == 1


class TestWakeupContractMutation:
    """Seeded mutation: delete the re-arm in an event callback."""

    def test_head_pipeline_is_clean(self, tmp_path):
        # the engine is the per-cycle caller of the core's stage
        # helpers (``_lp_retry_parked`` runs only under its ``tick``)
        root = copy_tree(tmp_path, "core/pipeline.py", "sim/engine.py")
        report = analyze_clean([root], passes=["wakeup-contract"])
        assert report.findings == [], report.render_text()

    def test_dropped_rearm_in_event_callback_is_flagged(self, tmp_path):
        root = copy_tree(tmp_path, "core/pipeline.py")
        target = root / "core" / "pipeline.py"
        lines = target.read_text().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines)
                     if "def _on_addr_ready" in line)
        rearm = next(i for i in range(start, start + 8)
                     if "self._wake_pending = True" in lines[i])
        del lines[rearm]
        target.write_text("".join(lines))
        report = analyze_clean([root], passes=["wakeup-contract"])
        assert any(f.rule == "wakeup-rearm"
                   and "_on_addr_ready" in f.message
                   for f in report.findings), report.render_text()

    def test_rearm_through_a_covered_caller_is_accepted(self, tmp_path):
        mod = tmp_path / "repro" / "pinning" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "class Controller:\n"
            "    def _pin(self, entry):\n"
            "        entry.pinned = True\n"
            "class Core:\n"
            "    def _on_addr_ready(self, entry):\n"
            "        self._wake_pending = True\n"
            "        self.controller._pin(entry)\n")
        report = analyze_clean([tmp_path], passes=["wakeup-contract"])
        assert report.findings == [], report.render_text()

    def test_uncalled_mutator_is_flagged(self, tmp_path):
        mod = tmp_path / "repro" / "pinning" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "class Controller:\n"
            "    def sneaky(self, entry):\n"
            "        entry.pinned = True\n")
        report = analyze_clean([tmp_path], passes=["wakeup-contract"])
        assert rules_of(report) == ["wakeup-rearm"]


class TestDeterminismMutation:
    """Seeded mutation: strip the env-read waiver from the runner."""

    def test_head_runner_is_clean(self, tmp_path):
        root = copy_tree(tmp_path, "sim/runner.py")
        report = analyze_clean([root], passes=["determinism"])
        assert report.findings == [], report.render_text()

    def test_stripped_waiver_resurfaces_env_read(self, tmp_path):
        root = copy_tree(tmp_path, "sim/runner.py")
        target = root / "sim" / "runner.py"
        text = target.read_text()
        assert "# repro: allow-env-read" in text
        target.write_text(text.replace("  # repro: allow-env-read", ""))
        report = analyze_clean([root], passes=["determinism"])
        assert "env-read" in rules_of(report), report.render_text()

    def test_all_four_rules_fire_in_sim_scope(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import os\n"
            "import random\n"
            "mode = os.environ['MODE']\n"
            "home = os.getenv('HOME')\n"
            "rng = random.Random()\n"
            "srng = random.SystemRandom()\n"
            "def order(entries):\n"
            "    return sorted(entries, key=lambda e: id(e))\n"
            "def dump(obj):\n"
            "    return [k for k in vars(obj)]\n")
        report = analyze_clean([tmp_path], passes=["determinism"])
        rules = set(rules_of(report))
        assert rules == {"env-read", "unseeded-random", "id-ordering",
                         "instance-dict-iteration"}

    def test_out_of_scope_packages_are_ignored(self, tmp_path):
        mod = tmp_path / "repro" / "analysis" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import os\nmode = os.environ['MODE']\n")
        report = analyze_clean([tmp_path], passes=["determinism"])
        assert report.findings == []

    def test_seeded_random_is_fine(self, tmp_path):
        mod = tmp_path / "repro" / "workloads" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import random\nrng = random.Random(1234)\n")
        report = analyze_clean([tmp_path], passes=["determinism"])
        assert report.findings == []


class TestEntropySourceRule:
    """``entropy-source``: the attack generator/oracle must derive every
    address from the experiment seed — an OS-entropy source would make
    leakage verdicts unreproducible."""

    def test_head_attack_suite_is_clean(self, tmp_path):
        root = copy_tree(tmp_path, "security/attacks.py",
                         "security/oracle.py", "security/campaign.py")
        report = analyze_clean([root], passes=["determinism"])
        assert report.findings == [], report.render_text()

    def test_seeded_entropy_mutation_is_caught(self, tmp_path):
        root = copy_tree(tmp_path, "security/attacks.py")
        target = root / "security" / "attacks.py"
        text = target.read_text()
        seeded = "rng = random.Random((seed << 4) ^ " \
                 "ATTACK_CLASSES.index(attack))"
        assert seeded in text
        target.write_text(text.replace("import random", "import random\n"
                                       "import os").replace(
            seeded,
            "rng = random.Random(int.from_bytes(os.urandom(8), 'big'))",
            1))
        report = analyze_clean([root], passes=["determinism"])
        assert "entropy-source" in rules_of(report), report.render_text()

    def test_every_entropy_source_shape_fires(self, tmp_path):
        mod = tmp_path / "repro" / "security" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import os\n"
            "import secrets\n"
            "import uuid\n"
            "from secrets import token_hex\n"
            "a = os.urandom(16)\n"
            "b = uuid.uuid4()\n"
            "c = uuid.uuid1()\n"
            "d = secrets.token_bytes(8)\n"
            "e = secrets.randbelow(10)\n"
            "f = token_hex(4)\n")
        report = analyze_clean([tmp_path], passes=["determinism"])
        assert set(rules_of(report)) == {"entropy-source"}
        assert len(report.findings) == 6

    def test_out_of_scope_entropy_is_ignored(self, tmp_path):
        mod = tmp_path / "repro" / "analysis" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import os\ntoken = os.urandom(16)\n")
        report = analyze_clean([tmp_path], passes=["determinism"])
        assert report.findings == []


class TestEventDisciplineMutation:
    """Seeded mutations: an unscheduled fault, a time warp."""

    def test_head_chaos_engine_is_clean(self, tmp_path):
        root = copy_tree(tmp_path, "chaos/engine.py")
        report = analyze_clean([root], passes=["event-discipline"])
        assert report.findings == [], report.render_text()

    def test_unscheduled_fault_method_is_flagged(self, tmp_path):
        root = copy_tree(tmp_path, "chaos/engine.py")
        engine = root / "chaos" / "engine.py"
        engine.write_text(
            engine.read_text()
            + "\n    def _rogue_spike(self) -> None:\n"
              "        self.system.cores[0].write_buffer"
              ".backpressure = True\n")
        report = analyze_clean([root], passes=["event-discipline"])
        assert any(f.rule == "unscheduled-chaos-mutation"
                   and "_rogue_spike" in f.message
                   for f in report.findings), report.render_text()

    def test_direct_cycle_write_is_flagged(self, tmp_path):
        root = copy_tree(tmp_path, "chaos/engine.py")
        engine = root / "chaos" / "engine.py"
        engine.write_text(
            engine.read_text()
            + "\n    def _warp(self) -> None:\n"
              "        self.system.events.now += 5\n")
        report = analyze_clean([root], passes=["event-discipline"])
        assert "direct-cycle-write" in rules_of(report), \
            report.render_text()

    def test_scheduled_fault_is_accepted(self, tmp_path):
        mod = tmp_path / "repro" / "chaos" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "class Engine:\n"
            "    def install(self):\n"
            "        self.system.events.schedule_after(10, self._spike)\n"
            "    def _spike(self):\n"
            "        self.system.cores[0].write_buffer"
            ".backpressure = True\n")
        report = analyze_clean([tmp_path], passes=["event-discipline"])
        assert report.findings == [], report.render_text()


class TestOnTheRepository:
    def test_full_analysis_is_clean_and_fast(self):
        start = time.perf_counter()
        report = analyze_paths([SRC])
        elapsed = time.perf_counter() - start
        assert report.clean, report.render_text()
        assert report.warnings == [], report.render_text()
        assert elapsed < 30, f"analyze took {elapsed:.1f}s"

    def test_all_five_passes_ran(self):
        report = analyze_paths([SRC / "verify" / "passes"])
        assert report.passes == ["lint", "wakeup-contract", "determinism",
                                 "event-discipline", "waivers"]
