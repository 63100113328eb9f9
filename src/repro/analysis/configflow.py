"""RPR103/RPR104 — configuration flow across the whole program.

``SystemConfig`` is the contract between the two recovery engines: a
field consumed by one engine but silently ignored by the other is
exactly the SMART-veto class of parity bug (the fast engine once ignored
``smart_detection_probability``, so sweeping the knob moved only the
object engine's curves).  RPR103 checks the contract statically: every
config field must be read — directly or through a ``SystemConfig``
property — by *both* the fast (flat-array) and the process (object)
engine, or carry an explicit single-engine allowlist justification.

RPR104 generalizes RPR010 cross-module: a config field no code ever
reads is dead weight (and a likely misspelling of the field the author
meant to wire), and a function parameter or dataclass field in model
code that re-states a config field name with its own literal default is
a shadow copy — callers that omit the argument silently pin the knob to
the local default instead of the configured value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .base import Violation
from .callgraph import ProjectGraph
from .symbols import ModuleFacts

PARITY_RULE_ID = "RPR103"
PARITY_RULE_SUMMARY = ("SystemConfig field not read by both recovery "
                       "engines (engine-parity drift)")
DEADCONF_RULE_ID = "RPR104"
DEADCONF_RULE_SUMMARY = ("dead config field, or local re-default "
                         "shadowing a config field")


@dataclass(frozen=True)
class ParityPolicy:
    """What counts as the config contract and as each engine."""

    config_module: str = "repro.config"
    config_class: str = "SystemConfig"
    #: module prefixes making up the flat-array (fast) engine.
    fast_modules: tuple[str, ...] = ("repro.reliability.simulation",)
    #: module prefixes making up the object (process) engine.
    process_modules: tuple[str, ...] = ("repro.core", "repro.cluster")
    #: field -> justification for a deliberate single-engine read.
    single_engine_fields: dict[str, str] = dc_field(default_factory=dict)
    #: module prefixes where shadow re-defaults are checked (model code).
    shadow_modules: tuple[str, ...] = ("repro.core", "repro.cluster",
                                      "repro.reliability", "repro.disks")
    #: "module:Qual.name" -> justification for a sanctioned re-default.
    shadow_allowlist: dict[str, str] = dc_field(default_factory=dict)


#: The repository's policy.  Keep every allowlist entry justified — the
#: entries are the documented, reviewed exceptions to the contract.
REPRO_PARITY_POLICY = ParityPolicy(
    single_engine_fields={
        # The spare reserve is an *initial-placement* constraint (paper
        # §3.1): recovered data may dig into the reserve, so both
        # engines bound rebuild targets by full capacity.  Only the
        # object model's Disk API enforces the initial-placement limit;
        # the flat-array engine never places initial data above it by
        # construction (target_utilization << 1 - reserve is validated
        # in SystemConfig.__post_init__).
        "spare_reserve_fraction":
            "initial-placement constraint enforced by the object "
            "model's Disk API; rebuild capacity is full-disk in both "
            "engines by design",
    },
    shadow_allowlist={
        # Disk is a standalone public API (examples, tests) and its
        # dataclass default mirrors the config default; StorageSystem
        # always plumbs the configured value through.
        "repro.disks.disk:Disk.spare_reserve_fraction":
            "standalone object API; StorageSystem plumbs the config "
            "value",
    },
)


def _module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def _config_fields(graph: ProjectGraph,
                   policy: ParityPolicy) -> dict[str, dict]:
    facts = graph.modules.get(policy.config_module)
    if facts is None:
        return {}
    cls = facts.classes.get(policy.config_class)
    if cls is None:
        return {}
    return cls.fields


def _engine_field_reads(graph: ProjectGraph, policy: ParityPolicy,
                        prefixes: tuple[str, ...],
                        fields: dict[str, dict],
                        prop_map: dict[str, set[str]]) -> set[str]:
    """Config fields read (directly or via properties) by a module set."""
    read: set[str] = set()
    for name, facts in graph.modules.items():
        if not _module_matches(name, prefixes):
            continue
        for attr in facts.attr_reads:
            if attr in fields:
                read.add(attr)
            for f in prop_map.get(attr, ()):
                if f in fields:
                    read.add(f)
    return read


def check_engine_parity(graph: ProjectGraph,
                        policy: ParityPolicy = REPRO_PARITY_POLICY
                        ) -> list[Violation]:
    """RPR103: each config field is read by both engines (or allowed)."""
    fields = _config_fields(graph, policy)
    if not fields:
        return []
    config_facts = graph.modules[policy.config_module]
    prop_map = graph.property_field_reads(policy.config_module,
                                          policy.config_class)
    fast = _engine_field_reads(graph, policy, policy.fast_modules,
                               fields, prop_map)
    process = _engine_field_reads(graph, policy, policy.process_modules,
                                  fields, prop_map)
    violations: list[Violation] = []
    for fname, meta in fields.items():
        in_fast = fname in fast
        in_process = fname in process
        if in_fast and in_process:
            continue
        if not in_fast and not in_process:
            continue            # dead field: RPR104's finding, not ours
        if fname in policy.single_engine_fields:
            continue
        line = int(meta.get("line", 0))
        if config_facts.suppressed(line, PARITY_RULE_ID):
            continue
        missing = "process (object)" if in_fast else "fast (flat-array)"
        present = "fast (flat-array)" if in_fast else "process (object)"
        violations.append(Violation(
            path=config_facts.path, line=line, col=0,
            rule=PARITY_RULE_ID,
            message=f"{policy.config_class}.{fname} is read by the "
                    f"{present} engine but never by the {missing} "
                    f"engine; wire it through or add a justified "
                    f"single-engine allowlist entry"))
    return sorted(violations)


def check_dead_config(graph: ProjectGraph,
                      policy: ParityPolicy = REPRO_PARITY_POLICY
                      ) -> list[Violation]:
    """RPR104: dead config fields + shadowing re-defaults."""
    fields = _config_fields(graph, policy)
    violations: list[Violation] = []
    if fields:
        config_facts = graph.modules[policy.config_module]
        prop_map = graph.property_field_reads(policy.config_module,
                                              policy.config_class)
        read: set[str] = set()
        for name, facts in graph.modules.items():
            if name == policy.config_module:
                continue
            for attr in facts.attr_reads:
                if attr in fields:
                    read.add(attr)
                for f in prop_map.get(attr, ()):
                    if f in fields:
                        read.add(f)
        for fname, meta in fields.items():
            if fname in read:
                continue
            line = int(meta.get("line", 0))
            if config_facts.suppressed(line, DEADCONF_RULE_ID):
                continue
            violations.append(Violation(
                path=config_facts.path, line=line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"{policy.config_class}.{fname} is never read "
                        f"outside {policy.config_module}; dead knob or "
                        f"mis-wired name"))
    violations.extend(_shadow_violations(graph, policy, fields))
    return sorted(violations)


def _shadow_violations(graph: ProjectGraph, policy: ParityPolicy,
                       fields: dict[str, dict]) -> list[Violation]:
    if not fields:
        return []
    out: list[Violation] = []
    for name, facts in graph.modules.items():
        if name == policy.config_module:
            continue
        if not _module_matches(name, policy.shadow_modules):
            continue
        out.extend(_function_shadows(name, facts, policy, fields))
        out.extend(_field_shadows(name, facts, policy, fields))
    return out


def _function_shadows(name: str, facts: ModuleFacts,
                      policy: ParityPolicy,
                      fields: dict[str, dict]) -> list[Violation]:
    out: list[Violation] = []
    for qual, fn in facts.functions.items():
        for param, default in fn.param_defaults.items():
            if param not in fields or default in ("None",):
                continue
            key = f"{name}:{qual}.{param}"
            if key in policy.shadow_allowlist:
                continue
            if facts.suppressed(fn.line, DEADCONF_RULE_ID):
                continue
            out.append(Violation(
                path=facts.path, line=fn.line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"parameter `{param}={default}` of `{qual}` "
                        f"re-defaults the config field "
                        f"`{policy.config_class}.{param}`; omitting "
                        f"the argument shadows the configured value"))
    return out


def _field_shadows(name: str, facts: ModuleFacts, policy: ParityPolicy,
                   fields: dict[str, dict]) -> list[Violation]:
    out: list[Violation] = []
    for cname, cls in facts.classes.items():
        for fname, meta in cls.fields.items():
            default = meta.get("default", "")
            if fname not in fields or not default or default == "None":
                continue
            key = f"{name}:{cname}.{fname}"
            if key in policy.shadow_allowlist:
                continue
            line = int(meta.get("line", 0))
            if facts.suppressed(line, DEADCONF_RULE_ID):
                continue
            out.append(Violation(
                path=facts.path, line=line, col=0,
                rule=DEADCONF_RULE_ID,
                message=f"dataclass field `{cname}.{fname} = {default}` "
                        f"re-defaults the config field "
                        f"`{policy.config_class}.{fname}`; plumb the "
                        f"configured value instead"))
    return out
