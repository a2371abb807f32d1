"""reprolint configuration: baked-in defaults + ``[tool.reprolint]`` overrides.

Every rule is scoped by path — the invariants are *regional* (wall-clock
reads are fine in the supervisor, banned in the simulator), so the
configuration maps rule IDs to include/exclude path fragments.  Paths
are matched as POSIX-style substrings against the linted file's path
relative to the project root, which keeps the config robust to where the
tool is invoked from.

Overrides come from ``pyproject.toml``::

    [tool.reprolint]
    exclude = ["tests/fixtures"]

    [tool.reprolint.rules.RPL002]
    include = ["src/repro/localsearch/", "src/repro/core/"]
    exclude = ["src/repro/localsearch/debug.py"]

Only ``include`` / ``exclude`` per rule and the global ``exclude`` /
``wire-types`` keys are recognized; unknown keys raise so typos cannot
silently disable a rule.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - py3.10 fallback
    tomllib = None

__all__ = ["Config", "RuleScope", "load_config", "DEFAULT_SCOPES"]


@dataclass(frozen=True)
class RuleScope:
    """Path scoping for one rule: matched iff any include fragment hits
    and no exclude fragment does.  An empty include list means
    "everywhere (minus excludes)"."""

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def matches(self, posix_path: str) -> bool:
        if any(frag in posix_path for frag in self.exclude):
            return False
        if not self.include:
            return True
        return any(frag in posix_path for frag in self.include)


#: Default per-rule scoping — the repo's invariant map.  See
#: docs/CHECKS.md for the rationale behind each region.
DEFAULT_SCOPES: dict[str, RuleScope] = {
    # Global RNG state is banned everywhere except the one module whose
    # job is to own seeding (utils/rng.py) and the test suite (tests may
    # exercise determinism by constructing generators ad hoc).
    "RPL001": RuleScope(
        include=(),
        exclude=("utils/rng.py", "tests/", "tools/"),
    ),
    # Wall-clock reads are banned in everything that runs under virtual
    # time: the local-search engine, the core EA node/driver, and the
    # discrete-event simulator.  The mp backend (its nodes pace on wall
    # deadlines) and the warm worker seam are the wall-clock domain by
    # design, and analysis/normalization.py calibrates vsec against real
    # time — all outside this scope.
    # src/repro/obs/ is the sanctioned exception inside the include
    # fragments' reach (docs/OBSERVABILITY.md): spans measure wall time
    # *about* the virtual-time code without letting it read the clock,
    # so the tracer owns the perf_counter calls and nothing else does.
    # src/repro/divide/ runs entirely under virtual time too: region
    # solvers are metered sessions and the repair pass charges a
    # WorkMeter, so wall-clock reads there would silently skew the
    # phase accounting the divide.* spans report.
    "RPL002": RuleScope(
        include=(
            "src/repro/localsearch/",
            "src/repro/core/",
            "src/repro/distributed/simulator.py",
            "src/repro/divide/",
        ),
        exclude=("src/repro/obs/",),
    ),
    # Operator hot-loop modules must route distance access through
    # DistView (row caches); raw instance.dist calls there bypass the
    # row cache and, worse, invite unsorted-row candidate scans.
    # The boundary-repair module hosts the divide pipeline's hot loop
    # (stitching scans + the restricted 2-opt/or-opt pass), so it obeys
    # the same DistView discipline as the operator modules.
    "RPL003": RuleScope(
        include=(
            "src/repro/localsearch/two_opt.py",
            "src/repro/localsearch/or_opt.py",
            "src/repro/localsearch/lin_kernighan.py",
            "src/repro/divide/repair.py",
        ),
    ),
    # Wire-type hygiene applies to the modules whose dataclasses cross
    # the multiprocessing boundary (see Config.wire_types).
    "RPL004": RuleScope(
        include=(
            "src/repro/distributed/message.py",
            "src/repro/core/node.py",
            "src/repro/localsearch/lin_kernighan.py",
            "src/repro/divide/partition.py",
            "src/repro/exec.py",
        ),
    ),
    # Blocking queue reads without a timeout are the hang class PR 1
    # eliminated; scoped to the real-process transport layer, the warm
    # worker seam (src/repro/exec.py) and the asyncio service package
    # (where `await q.get()` outside a finite asyncio.wait_for is the
    # same hang in coroutine clothing).
    "RPL005": RuleScope(
        include=(
            "src/repro/distributed/",
            "src/repro/exec.py",
            "src/repro/service/",
        ),
    ),
    # Silent exception swallowing is banned everywhere we lint.
    "RPL006": RuleScope(include=(), exclude=("tools/",)),
    # The dataflow tier (RPL007–011) guards the asyncio service layer —
    # the one package whose correctness depends on what happens *between*
    # statements: blocking calls on the event loop, read-modify-writes
    # spanning awaits, lost task handles, determinism taint flowing into
    # persisted records, and swallowed CancelledError.  Scoped to
    # src/repro/service/ because that is where the event loop lives; the
    # rest of the codebase is synchronous and covered by RPL001–006.
    "RPL007": RuleScope(include=("src/repro/service/",)),
    "RPL008": RuleScope(include=("src/repro/service/",)),
    "RPL009": RuleScope(include=("src/repro/service/",)),
    "RPL010": RuleScope(include=("src/repro/service/",)),
    "RPL011": RuleScope(include=("src/repro/service/",)),
}

#: Dataclasses that cross a process boundary (pickled to or from the
#: warm workers of src/repro/exec.py, or rebuilt from the mp backend's
#: wire tuples), per module fragment.
DEFAULT_WIRE_TYPES: dict[str, tuple[str, ...]] = {
    "distributed/message.py": ("Message",),
    "core/node.py": ("NodeConfig",),
    "localsearch/lin_kernighan.py": ("LKConfig",),
    # Regions ship into the divide scheduler's pool workers.
    "divide/partition.py": ("Region",),
    # The warm worker seam's orders and reports.
    "repro/exec.py": ("_Order", "_Note", "_Outcome"),
}

#: Field annotations accepted on wire types: immutable scalars, tuples,
#: numpy arrays (snapshotted, write-locked payloads), enums and nested
#: wire types.  Mutable containers (list/dict/set) are rejected — shared
#: mutable state across process boundaries is exactly the bug class this
#: rule guards against.
DEFAULT_PICKLABLE_NAMES: tuple[str, ...] = (
    "int",
    "float",
    "str",
    "bool",
    "bytes",
    "None",
    "Optional",
    "Union",
    "tuple",
    "Tuple",
    "frozenset",
    "ndarray",  # matches np.ndarray / numpy.ndarray leaves
    "MessageKind",
    "LKConfig",
)


@dataclass
class Config:
    """Resolved reprolint configuration."""

    scopes: dict[str, RuleScope] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    #: Path fragments excluded from linting entirely.
    exclude: tuple[str, ...] = ("__pycache__", ".git", "tests/fixtures")
    wire_types: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_WIRE_TYPES)
    )
    picklable_names: tuple[str, ...] = DEFAULT_PICKLABLE_NAMES

    def scope_for(self, rule_id: str) -> RuleScope:
        return self.scopes.get(rule_id, RuleScope())

    def wire_classes_for(self, posix_path: str) -> tuple[str, ...]:
        names: list[str] = []
        for fragment, classes in self.wire_types.items():
            if fragment in posix_path:
                names.extend(classes)
        return tuple(names)


def _as_fragments(value: Any, key: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ValueError(f"[tool.reprolint] {key} must be a list of strings")
    return tuple(value)


def load_config(root: Path | None = None) -> Config:
    """Load defaults merged with ``[tool.reprolint]`` from pyproject.toml."""
    config = Config()
    root = root or Path.cwd()
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return config
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    section = data.get("tool", {}).get("reprolint")
    if not section:
        return config
    for key, value in section.items():
        if key == "exclude":
            config.exclude = config.exclude + _as_fragments(value, "exclude")
        elif key == "rules":
            for rule_id, scope_spec in value.items():
                base = config.scopes.get(rule_id, RuleScope())
                unknown = set(scope_spec) - {"include", "exclude"}
                if unknown:
                    raise ValueError(
                        f"[tool.reprolint.rules.{rule_id}] unknown keys "
                        f"{sorted(unknown)}"
                    )
                config.scopes[rule_id] = RuleScope(
                    include=_as_fragments(
                        scope_spec.get("include", list(base.include)),
                        f"rules.{rule_id}.include",
                    ),
                    exclude=_as_fragments(
                        scope_spec.get("exclude", list(base.exclude)),
                        f"rules.{rule_id}.exclude",
                    ),
                )
        elif key == "wire-types":
            for fragment, classes in value.items():
                config.wire_types[fragment] = _as_fragments(
                    classes, f"wire-types.{fragment}"
                )
        else:
            raise ValueError(f"[tool.reprolint] unknown key {key!r}")
    return config


def iter_python_files(
    paths: Iterable[Path], exclude: tuple[str, ...]
) -> list[Path]:
    """Expand files/directories into a sorted list of .py files."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(
        p for p in out if not any(frag in p.as_posix() for frag in exclude)
    )
