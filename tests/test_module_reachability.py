"""Every module and every definition under ``src/repro`` is reachable from
the product's entry points.

The product surface is the ``repro-sim`` command line (``repro.cli``) plus the
modules the figure/table reproductions (``benchmarks/*.py``) and the examples
(``examples/*.py``) import.  The walk follows the static import graph over
the AST — ``import a.b``, ``from a import b`` (``b`` a submodule or a name),
imports inside functions, and the package ``__init__`` every import of a
submodule executes (so a package's re-exports count) — without importing
anything.  A module nothing reaches is code only the test suite runs: it
belongs under ``tests/``, or nowhere.  ``__main__`` entry points are exempt.

The same holds one level down (:class:`TestDefinitionReachability`): every
module-level or class-body definition of ``src/repro`` is named somewhere on
the product surface (``src/``, ``bench/``, ``benchmarks/``, ``examples/``)
besides its own ``def``, or is listed in :data:`ALLOWED` with the reason it
stays.  And for state (:class:`TestStateReachability`): every attribute
``src/repro`` assigns on ``self`` is read somewhere on the product surface.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The directories whose code is the product: a definition some file here
#: names has a product caller.
SURFACE = ("src", "bench", "benchmarks", "examples")

#: Definitions nothing on the product surface names, and why each stays.
ALLOWED = {
    "do_GET": "BaseHTTPRequestHandler hook: http.server dispatches to it by name",
    "do_POST": "BaseHTTPRequestHandler hook: http.server dispatches to it by name",
    "log_message": "BaseHTTPRequestHandler hook: silences the per-request log",
    "drift": "Lemma 2's one-slot Lyapunov drift, the paper's analysis",
    "drift_plus_penalty_bound": "Eq. 20's drift-plus-penalty bound, the paper's analysis",
    "theorem1_queue_bound": "Eq. 25's Theorem 1 queue bound, the paper's analysis",
    "decision_log": "the per-decision record the equivalence suites compare",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def product_modules(src: Path = SRC) -> Dict[str, Path]:
    """Dotted name -> file of every module of the ``repro`` package."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
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
    class — nested in a function or not — the names its body defines
    (annotated fields included)."""
    tree = ast.parse(path.read_text(), str(path))
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    names: Dict[str, Set[str]] = {"": {node.name for node in tree.body if isinstance(node, kinds)}}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names.setdefault(node.name, set()).update(
                {child.name for child in node.body if isinstance(child, kinds)}
                | {
                    child.target.id
                    for child in node.body
                    if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name)
                }
            )
    return names


def used_names(path: Path) -> Set[str]:
    """Every name ``path`` uses: an ``ast.Name``, an attribute, or a string
    shaped like an identifier (``getattr(obj, "name")``, a ``post("name")``
    dispatch, an ``(owner, "attr")`` patch tuple).  An ``__all__`` entry
    does not count, nor does an import alias or a ``def``'s own name."""
    tree = ast.parse(path.read_text(), str(path))
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                exported.update(id(entry) for entry in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in exported
            and _IDENTIFIER.match(node.value)
        ):
            names.add(node.value)
    return names


def unreached_definitions(root: Path = ROOT) -> Set[Tuple[str, str, str]]:
    """``(module, class or "", name)`` of every non-dunder definition of
    ``root/src/repro`` that no file on the product surface names."""
    used: Set[str] = set()
    for directory in SURFACE:
        for path in sorted((root / directory).rglob("*.py")):
            used |= used_names(path)
    return {
        (module, owner, name)
        for module, path in product_modules(root / "src").items()
        for owner, names in defined_names(path).items()
        for name in names
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


class TestDefinitionReachability:
    def test_every_definition_has_a_product_caller(self):
        unreached = sorted(
            entry for entry in unreached_definitions() if entry[2] not in ALLOWED
        )
        assert unreached == []

    def test_every_allowed_name_is_still_defined_and_unreached(self):
        """A stale entry fails: the list can only shrink."""
        assert set(ALLOWED) <= {name for _, _, name in unreached_definitions()}

    @pytest.fixture()
    def synthetic_tree(self, tmp_path):
        """A two-file package plus a ``bench/`` script, with one case of
        every rule of the gate; returns what the gate finds unreached."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('from repro.mod import Owner\n__all__ = ["Owner"]\n')
        (package / "mod.py").write_text(
            "__all__ = ['Owner', 'exported_only']\n"
            "def exported_only():\n    pass\n"
            "class Owner:\n"
            "    def called(self):\n        return getattr(self, 'looked_up')\n"
            "    def looked_up(self):\n        pass\n"
            "    def patched(self):\n        pass\n"
            "    def unused(self):\n        pass\n"
            "    def __repr__(self):\n        return 'Owner'\n"
            "def main():\n    def server():\n"
            "        class Handler:\n            def hook(self):\n                pass\n"
            "    return Owner().called(), server\n"
        )
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "trace.py").write_text(
            "from repro.mod import Owner, main as entry\n"
            "PATCHES = [(Owner, 'patched')]\nentry()\n"
        )
        return unreached_definitions(tmp_path)

    def test_the_gate_on_a_synthetic_tree(self, synthetic_tree):
        assert synthetic_tree == {
            ("repro.mod", "Owner", "unused"),
            ("repro.mod", "", "exported_only"),
            ("repro.mod", "Handler", "hook"),
            ("repro.mod", "", "main"),
        }

    def test_an_unused_method_is_flagged(self, synthetic_tree):
        assert ("repro.mod", "Owner", "unused") in synthetic_tree
        # Dunders are exempt: Python calls them by protocol, not by name.
        assert ("repro.mod", "Owner", "__repr__") not in synthetic_tree

    def test_an_all_entry_alone_is_no_use(self, synthetic_tree):
        assert ("repro.mod", "", "exported_only") in synthetic_tree
        # ``Owner`` is in both ``__all__`` lists, but ``called`` reaches it.
        assert ("repro.mod", "", "Owner") not in synthetic_tree

    def test_an_import_alias_is_no_use(self, synthetic_tree):
        """``main as entry`` names ``entry``; ``main`` itself stays unreached."""
        assert ("repro.mod", "", "main") in synthetic_tree

    def test_a_getattr_string_and_a_patch_tuple_are_uses(self, synthetic_tree):
        assert ("repro.mod", "Owner", "looked_up") not in synthetic_tree
        assert ("repro.mod", "Owner", "patched") not in synthetic_tree

    def test_class_bodies_inside_functions_are_walked(self, synthetic_tree):
        assert ("repro.mod", "Handler", "hook") in synthetic_tree


def assigned_attributes(path: Path) -> Set[Tuple[str, str]]:
    """``(class, attribute)`` of every ``self.<attribute>`` that ``path``
    assigns (plain, augmented or annotated), under the innermost class."""
    found: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                found.add((owner, child.attr))
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def read_names(path: Path) -> Set[str]:
    """Every attribute ``path`` reads (a ``Load``-context attribute) and every
    string shaped like an identifier (``getattr(obj, "name")``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                names.add(node.value)
    return names


def write_only_attributes(root: Path = ROOT) -> Set[Tuple[str, str, str]]:
    """``(module, class, attribute)`` of every attribute ``root/src/repro``
    assigns on ``self`` that no file on the product surface reads."""
    read: Set[str] = set()
    for directory in SURFACE:
        for path in sorted((root / directory).rglob("*.py")):
            read |= read_names(path)
    return {
        (module, owner, attribute)
        for module, path in product_modules(root / "src").items()
        for owner, attribute in assigned_attributes(path)
        if attribute not in read
    }


class TestStateReachability:
    def test_every_assigned_attribute_is_read(self):
        """State the product writes and never reads is a counter nothing
        reports: delete it, or give it a reader."""
        assert sorted(write_only_attributes()) == []

    def test_the_gate_on_a_synthetic_tree(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.read = 0\n"
            "        self.looked_up = 0\n"
            "        self.benched = 0\n"
            "        self.counter = 0\n"
            "        self.noted: int = 0\n"
            "    def step(self):\n"
            "        self.counter += 1\n"
            "        return self.read + getattr(self, 'looked_up')\n"
            "    class Inner:\n"
            "        def __init__(self):\n"
            "            self.inner_only = 1\n"
        )
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "probe.py").write_text("def probe(owner):\n    return owner.benched\n")
        assert write_only_attributes(tmp_path) == {
            ("repro.mod", "Owner", "counter"),
            ("repro.mod", "Owner", "noted"),
            ("repro.mod", "Inner", "inner_only"),
        }


#: Entry points whose keyword parameters some product call must set:
#: ``(module, definition)`` -> the callee names through which a call's
#: keywords reach it (``build_engine`` forwards ``**kwargs`` to both engines).
KEYWORD_ENTRY_POINTS = {
    ("repro.sim.engine", "SimulationEngine"): {"SimulationEngine", "build_engine"},
    ("repro.sim.shard", "ShardedEngine"): {"ShardedEngine", "build_engine"},
    ("repro.sim.engine", "build_engine"): {"build_engine"},
    ("repro.analysis.runner", "RunSpec"): {"RunSpec"},
    ("repro.analysis.runner", "ExperimentSuite"): {"ExperimentSuite"},
    ("repro.scenarios.runner", "ScenarioRunner"): {"ScenarioRunner"},
    ("repro.scenarios.runner", "scenario_run_spec"): {"scenario_run_spec"},
    ("repro.analysis.runner", "sweep_grid"): {"sweep_grid"},
}

#: ``(definition, parameter)`` pairs no product call sets by keyword, and
#: why each stays.
KEYWORD_ALLOWED = {
    ("ShardedEngine", "inline"): "the in-process test seam: the sharded data path "
    "without worker processes",
    ("ShardedEngine", "start_method"): "the spawn path of platforms without fork",
    ("SimulationEngine", "measurement_table"): "no product caller passes it today; "
    "its removal is a later change",
    ("ShardedEngine", "measurement_table"): "no product caller passes it today; "
    "its removal is a later change",
    ("scenario_run_spec", "label"): "set by a POST /jobs scenario payload, whose keys "
    "the service splats into the call",
    ("sweep_grid", "policies"): "no product caller passes it today; its removal is a "
    "later change",
    ("sweep_grid", "arrival_probs"): "no product caller passes it today; its removal "
    "is a later change",
}


def keyword_parameters(path: Path, name: str) -> Set[str]:
    """The parameters of ``name`` in ``path`` that have a default: a
    function's, a class's ``__init__``'s, or a dataclass's fields."""
    tree = ast.parse(path.read_text(), str(path))
    (node,) = [
        child
        for child in tree.body
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
    ]
    if isinstance(node, ast.ClassDef):
        inits = [
            child for child in node.body
            if isinstance(child, ast.FunctionDef) and child.name == "__init__"
        ]
        if not inits:
            return {
                child.target.id
                for child in node.body
                if isinstance(child, ast.AnnAssign) and child.value is not None
            }
        node = inits[0]
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return {arg.arg for arg in defaulted} | {
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    }


def keyword_calls(root: Path = ROOT) -> Set[Tuple[str, str]]:
    """``(callee, keyword)`` of every call on the product surface that passes
    ``keyword=...``; the callee is the called name or attribute."""
    found: Set[Tuple[str, str]] = set()
    for directory in SURFACE:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.update((callee, kw.arg) for kw in node.keywords if kw.arg is not None)
    return found


def unset_keywords(
    root: Path = ROOT, entry_points: Dict[Tuple[str, str], Set[str]] = KEYWORD_ENTRY_POINTS
) -> Set[Tuple[str, str]]:
    """``(definition, parameter)`` of every keyword parameter of
    ``entry_points`` that no product call sets."""
    modules = product_modules(root / "src")
    calls = keyword_calls(root)
    return {
        (name, parameter)
        for (module, name), callees in entry_points.items()
        for parameter in keyword_parameters(modules[module], name)
        if not any((callee, parameter) in calls for callee in callees)
    }


class TestKeywordReachability:
    """Every keyword parameter of the engine and run-spec entry points is set
    by some product call: a setting only tests pass is a second way to run."""

    def test_every_keyword_parameter_has_a_product_caller(self):
        assert sorted(unset_keywords() - set(KEYWORD_ALLOWED)) == []

    def test_every_allowed_keyword_is_still_a_parameter_and_unset(self):
        """A stale entry fails: the list can only shrink."""
        assert set(KEYWORD_ALLOWED) <= unset_keywords()

    def test_the_gate_on_a_synthetic_tree(self, tmp_path):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "engine.py").write_text(
            "class SimulationEngine:\n"
            "    def __init__(self, config, policy, profile=False, knob=1, *, seam=None):\n"
            "        pass\n"
            "def build_engine(config, policy, *, shards=1, **kwargs):\n"
            "    return SimulationEngine(config, policy, **kwargs)\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "run.py").write_text(
            "from repro.sim.engine import build_engine\n"
            "build_engine(None, None, shards=2, profile=True)\n"
            "dict(seam=None)\n"
        )
        entry_points = {
            ("repro.sim.engine", "SimulationEngine"): {"SimulationEngine", "build_engine"},
            ("repro.sim.engine", "build_engine"): {"build_engine"},
        }
        # ``profile`` reaches the engine through ``build_engine``; ``seam=``
        # passed to another callee sets nothing.
        assert unset_keywords(tmp_path, entry_points) == {
            ("SimulationEngine", "knob"),
            ("SimulationEngine", "seam"),
        }


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

    def test_no_second_benchmark_record_reader(self):
        """The store is the one regression source: nothing in the product
        reads the frozen schema-1 ``BENCH_*.json`` trajectories."""
        modules = product_modules()
        assert "repro.metrics.bench" not in modules
        gone = {"detect_bench_regressions", "load_bench_dir", "_bench_section"}
        defined = {
            (module, name)
            for module, path in modules.items()
            for names in defined_names(path).values()
            for name in names & gone
        }
        assert defined == set()

    def test_a_transfer_is_a_count(self):
        """Model transfers are counted, not timed: no network model, transport
        or per-transfer record in the product."""
        modules = product_modules()
        assert not [name for name in modules if name.startswith("repro.comm")]
        gone = {"ModelTransport", "NetworkModel", "NetworkCondition", "TransferRecord"}
        defined = {
            (module, name)
            for module, path in modules.items()
            for names in defined_names(path).values()
            for name in names & gone
        }
        assert defined == set()

    def test_product_classes_keep_no_scalar_hooks(self):
        dropped = {
            "PowerModel": {"power"},
            "ParameterServer": {"download", "register_inflight", "estimate_lag"},
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

