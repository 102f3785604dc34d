"""Tests for the reprolint static-analysis pass.

Every rule gets (at least) one detection test on a deliberately-seeded
fixture snippet and one test that the ``# reprolint: disable=RLxxx``
suppression comment silences exactly that finding.  The suite closes with
the merge-gate property: the shipped ``src/repro/`` tree is clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from tools.reprolint import LintConfig, VersionedClass, lint_paths, lint_source
from tools.reprolint.__main__ import main as reprolint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(source: str, path: str):
    """Lint a dedented snippet under a fake repo-relative path."""
    return lint_source(textwrap.dedent(source), path)


def rule_ids(violations):
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# RL001: no direct `random` use outside the RNG registry module
# ----------------------------------------------------------------------
class TestRL001:
    def test_detects_import_random(self):
        violations = lint("import random\n", "src/repro/net/foo.py")
        assert rule_ids(violations) == ["RL001"]

    def test_detects_from_random_import(self):
        violations = lint("from random import choice\n", "src/repro/mac/foo.py")
        assert rule_ids(violations) == ["RL001"]

    def test_rng_module_is_allowed(self):
        violations = lint("import random\n", "src/repro/sim/rng.py")
        assert violations == []

    def test_suppression(self):
        violations = lint(
            "import random  # reprolint: disable=RL001\n", "src/repro/net/foo.py"
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL002: no wall-clock reads inside simulation code
# ----------------------------------------------------------------------
class TestRL002:
    def test_detects_time_attribute_read(self):
        violations = lint(
            """
            import time

            def f():
                return time.perf_counter()
            """,
            "src/repro/sim/foo.py",
        )
        assert rule_ids(violations) == ["RL002"]

    def test_detects_aliased_module(self):
        violations = lint(
            """
            import time as _t

            def f():
                return _t.monotonic()
            """,
            "src/repro/mac/foo.py",
        )
        assert rule_ids(violations) == ["RL002"]

    def test_detects_from_import(self):
        violations = lint(
            "from time import perf_counter\n", "src/repro/sim/foo.py"
        )
        assert rule_ids(violations) == ["RL002"]

    def test_detects_datetime_now(self):
        violations = lint(
            """
            from datetime import datetime

            def f():
                return datetime.now()
            """,
            "src/repro/net/foo.py",
        )
        assert rule_ids(violations) == ["RL002"]

    def test_cli_module_is_allowed(self):
        violations = lint(
            """
            import time

            def f():
                return time.perf_counter()
            """,
            "src/repro/experiments/__main__.py",
        )
        assert violations == []

    def test_simclock_now_is_not_a_wallclock_read(self):
        violations = lint(
            """
            def f(clock):
                return clock.now
            """,
            "src/repro/sim/foo.py",
        )
        assert violations == []

    def test_suppression(self):
        violations = lint(
            """
            import time

            def f():
                return time.perf_counter()  # reprolint: disable=RL002
            """,
            "src/repro/sim/foo.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL003: no unordered-set iteration in RNG/event-scheduling modules
# ----------------------------------------------------------------------
class TestRL003:
    def test_detects_for_over_annotated_set_param(self):
        violations = lint(
            """
            def f(items: set):
                for item in items:
                    print(item)
            """,
            "src/repro/mac/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_detects_for_over_set_call_local(self):
        violations = lint(
            """
            def f(values):
                pending = set(values)
                for item in pending:
                    print(item)
            """,
            "src/repro/net/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_detects_self_attribute_set(self):
        violations = lint(
            """
            class Tracker:
                def __init__(self):
                    self._dirty = set()

                def flush(self):
                    for node in self._dirty:
                        node.refresh()
            """,
            "src/repro/net/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_detects_set_difference_iteration(self):
        violations = lint(
            """
            def f(old: set, new: set):
                for item in old - new:
                    print(item)
            """,
            "src/repro/net/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_detects_order_sensitive_consumer(self):
        violations = lint(
            """
            def f(items: set):
                return list(items)
            """,
            "src/repro/sim/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_sorted_wrapper_is_clean(self):
        violations = lint(
            """
            def f(items: set):
                for item in sorted(items):
                    print(item)
            """,
            "src/repro/mac/foo.py",
        )
        assert violations == []

    def test_order_insensitive_reduction_is_clean(self):
        violations = lint(
            """
            def f(items: set):
                return min(items) + sum(items)
            """,
            "src/repro/mac/foo.py",
        )
        assert violations == []

    def test_module_outside_packages_is_not_checked(self):
        violations = lint(
            """
            def f(items: set):
                for item in items:
                    print(item)
            """,
            "src/repro/metrics/foo.py",
        )
        assert violations == []

    def test_suppression(self):
        violations = lint(
            """
            def f(items: set):
                for item in items:  # reprolint: disable=RL003
                    print(item)
            """,
            "src/repro/mac/foo.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL004: tracked-field mutations must bump the version hook
# ----------------------------------------------------------------------
class TestRL004:
    def test_detects_mutation_without_bump(self):
        violations = lint(
            """
            class Slotframe:
                def add_cell(self, cell):
                    self._table[cell.slot_offset] = [cell]
            """,
            "src/repro/mac/slotframe.py",
        )
        assert rule_ids(violations) == ["RL004"]

    def test_detects_mutating_method_call_without_bump(self):
        violations = lint(
            """
            class Slotframe:
                def add_cell(self, cell):
                    self._table.setdefault(cell.slot_offset, []).append(cell)
            """,
            "src/repro/mac/slotframe.py",
        )
        assert rule_ids(violations) == ["RL004"]

    def test_detects_mutation_through_local_alias(self):
        violations = lint(
            """
            class Slotframe:
                def remove_cell(self, cell):
                    bucket = self._table[cell.slot_offset]
                    bucket.remove(cell)
            """,
            "src/repro/mac/slotframe.py",
        )
        assert rule_ids(violations) == ["RL004"]

    def test_bumped_method_is_clean(self):
        violations = lint(
            """
            class Slotframe:
                def add_cell(self, cell):
                    self._table.setdefault(cell.slot_offset, []).append(cell)
                    self._mutated()
            """,
            "src/repro/mac/slotframe.py",
        )
        assert violations == []

    def test_attribute_bump_counts(self):
        config = LintConfig(
            versioned_classes={"Estimator": (VersionedClass(("_etx",), ("version",)),)}
        )
        source = """
            class Estimator:
                def record(self, neighbor):
                    self._etx[neighbor] = 1.0
                    {bump}
            """
        bumped = source.format(bump="self.version += 1")
        assert lint_source(textwrap.dedent(bumped), "src/repro/phy/foo.py", config) == []
        unbumped = source.format(bump="pass")
        violations = lint_source(textwrap.dedent(unbumped), "src/repro/phy/foo.py", config)
        assert rule_ids(violations) == ["RL004"]

    def test_init_is_exempt(self):
        violations = lint(
            """
            class Slotframe:
                def __init__(self):
                    self._table = {}
            """,
            "src/repro/mac/slotframe.py",
        )
        assert violations == []

    def test_bumps_pair_with_their_fields(self):
        """A quiet method must call the queue bump: the schedule bump does not
        cover a quiet-set change, nor the queue bump a slotframe change."""
        violations = lint(
            """
            class TschEngine:
                def add_quiet_neighbor(self, neighbor):
                    self._quiet.add(neighbor)
                    self._on_schedule_mutated()

                def remove_slotframe(self, handle):
                    self.slotframes.pop(handle)
                    self.mark_queue_mutated()

                def clear_quiet_neighbors(self):
                    self._quiet.clear()
                    self.mark_queue_mutated()
            """,
            "src/repro/mac/tsch.py",
        )
        assert sorted(violation.line for violation in violations) == [4, 8]
        assert rule_ids(violations) == ["RL004", "RL004"]

    def test_unregistered_class_is_not_checked(self):
        violations = lint(
            """
            class SomethingElse:
                def add(self, item):
                    self._table[item] = 1
            """,
            "src/repro/mac/foo.py",
        )
        assert violations == []

    def test_suppression(self):
        violations = lint(
            """
            class Slotframe:
                def add_cell(self, cell):
                    self._table[cell.slot_offset] = [cell]  # reprolint: disable=RL004
            """,
            "src/repro/mac/slotframe.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL005: __slots__ required on classes in hot modules
# ----------------------------------------------------------------------
class TestRL005:
    def test_detects_missing_slots(self):
        violations = lint(
            """
            class Cell:
                def __init__(self):
                    self.slot_offset = 0
            """,
            "src/repro/mac/cell.py",
        )
        assert rule_ids(violations) == ["RL005"]

    def test_slots_class_is_clean(self):
        violations = lint(
            """
            class Cell:
                __slots__ = ("slot_offset",)

                def __init__(self):
                    self.slot_offset = 0
            """,
            "src/repro/mac/cell.py",
        )
        assert violations == []

    def test_enum_is_exempt(self):
        violations = lint(
            """
            from enum import Enum

            class CellPurpose(Enum):
                BROADCAST = "broadcast"
            """,
            "src/repro/mac/cell.py",
        )
        assert violations == []

    def test_named_tuple_is_exempt(self):
        """A ``typing.NamedTuple`` class gets a generated ``__slots__ = ()``."""
        violations = lint(
            """
            import typing
            from typing import NamedTuple

            class CellDescriptor(NamedTuple):
                slot_offset: int
                channel_offset: int

            class SixPRequest(typing.NamedTuple):
                num_cells: int = 0
            """,
            "src/repro/sixtop/messages.py",
        )
        assert violations == []

    def test_sixtop_message_modules_are_checked(self):
        for path in ("src/repro/sixtop/messages.py", "src/repro/sixtop/negotiation.py"):
            violations = lint(
                """
                class SixPMessage:
                    def __init__(self):
                        self.seqnum = 0
                """,
                path,
            )
            assert rule_ids(violations) == ["RL005"], path

    def test_cold_module_is_not_checked(self):
        violations = lint(
            """
            class Report:
                pass
            """,
            "src/repro/metrics/foo.py",
        )
        assert violations == []

    def test_suppression(self):
        violations = lint(
            """
            class Cell:  # reprolint: disable=RL005
                pass
            """,
            "src/repro/mac/cell.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL006: integer settlement counters stay integer
# ----------------------------------------------------------------------
class TestRL006:
    def test_detects_float_constant(self):
        violations = lint(
            """
            class DutyCycleMeter:
                __slots__ = ("tx_slots",)

                def record(self):
                    self.tx_slots += 1.0
            """,
            "src/repro/mac/duty_cycle.py",
        )
        assert rule_ids(violations) == ["RL006"]

    def test_detects_true_division(self):
        violations = lint(
            """
            def settle(meter, debt):
                meter.sleep_slots = debt / 2
            """,
            "src/repro/mac/tsch.py",
        )
        assert rule_ids(violations) == ["RL006"]

    def test_integer_arithmetic_is_clean(self):
        violations = lint(
            """
            def settle(meter, debt):
                meter.sleep_slots += debt
                meter.total_slots += debt // 2
            """,
            "src/repro/mac/tsch.py",
        )
        assert violations == []

    def test_int_cast_cleanses(self):
        violations = lint(
            """
            def settle(meter, seconds, slot_s):
                meter.total_slots = int(seconds / slot_s)
            """,
            "src/repro/mac/tsch.py",
        )
        assert violations == []

    def test_cold_module_is_not_checked(self):
        violations = lint(
            """
            def f(obj):
                obj.tx_slots = 0.5
            """,
            "src/repro/metrics/foo.py",
        )
        assert violations == []

    def test_suppression(self):
        violations = lint(
            """
            class DutyCycleMeter:
                __slots__ = ("tx_slots",)

                def record(self):
                    self.tx_slots += 1.0  # reprolint: disable=RL006
            """,
            "src/repro/mac/duty_cycle.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# suppression mechanics
# ----------------------------------------------------------------------
class TestSuppression:
    def test_bare_disable_silences_every_rule(self):
        violations = lint(
            "import random  # reprolint: disable\n", "src/repro/net/foo.py"
        )
        assert violations == []

    def test_disabling_one_rule_keeps_the_other(self):
        violations = lint(
            """
            import time

            def f(items: set):
                for item in items:
                    time.sleep(1)  # reprolint: disable=RL002
            """,
            "src/repro/sim/foo.py",
        )
        assert rule_ids(violations) == ["RL003"]

    def test_multiple_rules_in_one_comment(self):
        violations = lint(
            """
            class Cell:  # reprolint: disable=RL005,RL004
                pass
            """,
            "src/repro/mac/cell.py",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RL007: no write to, or call through, another object's private attribute
# outside its module
# ----------------------------------------------------------------------
class TestRL007:
    def test_detects_augmented_write_from_another_module(self):
        violations = lint(
            """
            def crash(node):
                node.rpl._memo_inputs += 1
            """,
            "src/repro/faults/injector.py",
        )
        assert rule_ids(violations) == ["RL007"]
        assert "_memo_inputs" in violations[0].message

    def test_detects_assignment_and_deletion(self):
        violations = lint(
            """
            def arrive(node):
                node._cold_join_pending = True
                del node._cold_join_pending
            """,
            "src/repro/faults/injector.py",
        )
        assert rule_ids(violations) == ["RL007", "RL007"]

    def test_detects_write_through_an_attribute_of_self(self):
        """``self.rpl`` is another object: only ``self`` itself owns ``_x``."""
        violations = lint(
            """
            class Node:
                def desync(self):
                    self.rpl._memo_inputs += 1
            """,
            "src/repro/net/node.py",
        )
        assert rule_ids(violations) == ["RL007"]

    def test_own_attributes_are_clean(self):
        violations = lint(
            """
            class Node:
                def reset(self):
                    self._flag = True
                    del self._flag

                @classmethod
                def configure(cls):
                    cls._registry = {}
            """,
            "src/repro/net/node.py",
        )
        assert violations == []

    def test_attribute_defined_in_the_same_module_is_clean(self):
        violations = lint(
            """
            class Event:
                def __init__(self):
                    self._queue = None

            class EventQueue:
                def schedule(self, event):
                    event._queue = self
            """,
            "src/repro/net/network.py",
        )
        assert violations == []

    def test_reads_calls_and_dunders_are_clean(self):
        """Reads, calls through ``self``'s own private attributes, calls of
        public methods with private arguments, and dunders."""
        violations = lint(
            """
            class Injector:
                def boot(self, node):
                    self._records.clear()
                    node.power_up(node._eb_timer)
                    flag = node._cold_join_pending
                    node.__doc__ = "booted"
                    return flag
            """,
            "src/repro/faults/injector.py",
        )
        assert violations == []

    def test_detects_call_through_another_objects_private_attribute(self):
        violations = lint(
            """
            def rejoin(node):
                node._eb_timer.start()
                node._open_join_episode()
                node.rpl._trickle_timers[0].reset()
            """,
            "src/repro/faults/injector.py",
        )
        assert rule_ids(violations) == ["RL007", "RL007", "RL007"]
        assert "call through" in violations[0].message
        assert [v.message.split("`")[1] for v in violations] == [
            "_eb_timer",
            "_open_join_episode",
            "_trickle_timers",
        ]

    def test_call_through_a_call_is_flagged_once(self):
        violations = lint("node._timer().stop()\n", "src/repro/faults/injector.py")
        assert rule_ids(violations) == ["RL007"]

    def test_call_defined_in_the_same_module_is_clean(self):
        """A name the module assigns through ``self``, or has a ``def`` of, is its own."""
        violations = lint(
            """
            class Event:
                def __init__(self):
                    self._timer = None

                def _fire(self):
                    pass

            class EventQueue:
                def run(self, event):
                    event._fire()
                    event._timer.start()
            """,
            "src/repro/net/network.py",
        )
        assert violations == []

    def test_code_outside_the_package_is_not_checked(self):
        violations = lint("node._flag = True\n", "tests/net/test_node.py")
        assert violations == []

    def test_suppression(self):
        violations = lint(
            "node._flag = True  # reprolint: disable=RL007\n", "src/repro/net/foo.py"
        )
        assert violations == []


# ----------------------------------------------------------------------
# CLI and merge-gate properties
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, tmp_path):
        dirty = tmp_path / "repro" / "net" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import random\n")
        clean = tmp_path / "repro" / "net" / "clean.py"
        clean.write_text("x = 1\n")
        assert reprolint_main([str(dirty)]) == 1
        assert reprolint_main([str(clean)]) == 0

    def test_json_output_counts(self, tmp_path, capsys):
        dirty = tmp_path / "repro" / "net" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import random\n")
        status = reprolint_main([str(dirty), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert status == 1
        assert report["total"] == 1
        assert report["counts"]["RL001"] == 1
        assert report["counts"]["RL005"] == 0
        assert report["violations"][0]["rule"] == "RL001"
        assert report["violations"][0]["line"] == 1

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "repro" / "net" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:\n")
        violations = lint_paths([str(bad)])
        assert [violation.rule for violation in violations] == ["RL000"]


class TestShippedTree:
    def test_src_tree_is_clean(self):
        violations = lint_paths([str(REPO_ROOT / "src")])
        assert violations == [], "\n".join(v.format() for v in violations)
