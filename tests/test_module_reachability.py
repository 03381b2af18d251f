"""Every module under ``src/repro`` is reachable from the product's entry points.

The product surface is the ``repro-sim`` command line (``repro.cli``) plus the
modules the figure/table reproductions (``benchmarks/*.py``) and the examples
(``examples/*.py``) import.  The walk follows the static import graph over
the AST — ``import a.b``, ``from a import b`` (``b`` a submodule or a name),
imports inside functions, and the package ``__init__`` every import of a
submodule executes (so a package's re-exports count) — without importing
anything.  A module nothing reaches is code only the test suite runs: it
belongs under ``tests/``, or nowhere.  ``__main__`` entry points are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def product_modules() -> Dict[str, Path]:
    """Dotted name -> file of every module of the ``repro`` package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path) -> Iterable[str]:
    """Every dotted name ``path`` imports, anywhere in the file; for
    ``from a import b`` both ``a`` and ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def reached_from(roots: Iterable[str], modules: Dict[str, Path]) -> Set[str]:
    """Modules of ``modules`` reachable from the dotted names ``roots``,
    counting the ancestor packages each import executes."""
    reached: Set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            module = ".".join(parts[:depth])
            if module in modules and module not in reached:
                reached.add(module)
                pending.extend(imported_names(modules[module]))
    return reached


def entry_points() -> Set[str]:
    """``repro.cli`` plus every name the benchmarks and examples import."""
    roots = {"repro.cli"}
    for directory in ("benchmarks", "examples"):
        for path in sorted((ROOT / directory).glob("*.py")):
            roots.update(imported_names(path))
    return roots


class TestModuleReachability:
    def test_every_module_is_reached_from_the_product_surface(self):
        modules = product_modules()
        reached = reached_from(entry_points(), modules)
        unreached = sorted(
            name for name in modules if name not in reached and not name.endswith(".__main__")
        )
        assert unreached == []

    def test_the_walk_follows_reexports_and_local_imports(self):
        modules = product_modules()
        # Package re-export: repro.device.__init__ imports repro.device.thermal.
        assert "repro.device.thermal" in reached_from(["repro.device.models"], modules)
        # Function-local import: the lint subcommand imports reprolint lazily.
        assert "repro.tools.reprolint.framework" in reached_from(["repro.cli"], modules)
        # Nothing is reached from outside the package.
        assert reached_from(["numpy", "tests.oracle"], modules) == set()


def defined_names(path: Path) -> Dict[str, Set[str]]:
    """Module-level class/function names of ``path`` (key ``""``) and, per
    class, the names its body defines (annotated fields included)."""
    tree = ast.parse(path.read_text(), str(path))
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    names: Dict[str, Set[str]] = {"": set()}
    for node in tree.body:
        if isinstance(node, kinds):
            names[""].add(node.name)
        if isinstance(node, ast.ClassDef):
            names[node.name] = {
                child.name for child in node.body if isinstance(child, kinds)
            } | {
                child.target.id
                for child in node.body
                if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name)
            }
    return names


class TestOneDataPlane:
    """The per-user reference loop and the scalar models only it runs live in
    ``tests/reference_loop.py``; the product keeps no twin of them."""

    def test_the_oracle_and_its_scalar_models_are_not_in_the_product(self):
        moved = {
            "ReferenceLoopEngine", "MobileDevice", "TrainingJob", "StepOutcome",
            "DeviceState", "EnergyAccountant", "GapTracker",
            "ModelUpload", "ModelDownload", "DvfsGovernor", "OperatingPoint",
            "DeviceObservation", "DecisionCosts",
            # The per-user shard copy; the client plane holds row offsets.
            "DataPartition",
            # The scalar app draw; the arrival walk reads it off the words.
            "sample_app",
            # A layer with a generator of its own: every round is a row of
            # a stacked block, so the client plane trains none.
            "Dropout",
            # A second dataset builder for callers to pass around: engines
            # of one configuration share theirs by content.
            "_shared_dataset",
        }
        for name in ("sim/reference.py", "device/device.py", "device/dvfs.py"):
            assert not (SRC / "repro" / name).exists()
        defined = {
            (module, name)
            for module, path in product_modules().items()
            for names in defined_names(path).values()
            for name in names & moved
        }
        assert defined == set()

    def test_product_classes_keep_no_scalar_hooks(self):
        dropped = {
            "PowerModel": {"power"},
            "ParameterServer": {"download", "register_inflight", "estimate_lag"},
            "ModelTransport": {"upload", "download"},
            "SimulationTrace": {"record_decision", "record_user_gap"},
            "ArrivalSchedule": {"app_starting_at", "arrival_rate", "_generate_user_sparse"},
            "ForegroundApp": {"is_running"},
            # One decision plane: ``decide_all`` over a batch is the only
            # policy interface.
            "SchedulingPolicy": {"decide"},
            "OnlinePolicy": {"decide"},
            "OfflinePolicy": {"decide", "_remember"},
            "ImmediatePolicy": {"decide"},
            "SyncPolicy": {"decide"},
            "DecisionIntervalPolicy": {"decide"},
            "OnlineController": {"evaluate", "decide"},
            # ... over numbers only: no name columns (or codes for them).
            "ObservationBatch": {"observation", "device_names", "app_names"},
            "ReadyPayload": {"device_names", "app_names", "device_codes", "app_codes", "catalogs"},
            # One client plane per user range: no per-user optimizer state
            # or generator, and no diagnostics nothing in the product calls.
            "FLClient": {"evaluate_local", "momentum_norm", "_train_round"},
            "MomentumSGD": {"apply_to_vector", "load_velocity", "lend_velocity", "reset"},
            # One local-round form (every round a row of a stacked block),
            # and no layer with a training / evaluation switch.
            "Sequential": {"zero_grads", "get_flat_grads", "stackable", "train_mode"},
            "Layer": {"train_mode"},
        }
        methods: Dict[str, Set[str]] = {}
        for path in product_modules().values():
            for owner, names in defined_names(path).items():
                if owner in dropped:
                    methods.setdefault(owner, set()).update(names)
        assert set(methods) == set(dropped)  # each class is still found
        # What the column plane and the bench tracer still call stays.
        assert {"async_update", "unregister_inflight"} <= methods["ParameterServer"]
        assert {"decide_all", "idle_slots", "record_idle"} <= methods["SchedulingPolicy"]
        assert "evaluate_batch" in methods["OnlineController"]
        assert {"local_train", "checkpoint_state", "restore_state"} <= methods["FLClient"]
        assert "_train_block" in methods["FLClient"] and "stacked" in methods["Sequential"]
        columns = methods["ObservationBatch"] | methods["ReadyPayload"]
        assert {"user_ids", "users", "app_running"} <= columns
        assert not {name for name in columns if "name" in name or "code" in name}
        assert {owner: names & dropped[owner] for owner, names in methods.items()} == {
            owner: set() for owner in dropped
        }

