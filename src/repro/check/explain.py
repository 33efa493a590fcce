"""Human- and machine-readable dumps of the plan-fact base.

``repro check --explain`` renders :func:`render_explain` — one block per
pipeline: plan-level facts (digest, sort stability, mergeability), then
each polluter's kernel eligibility (a composite's children indented below
it) with its machine-readable reason and fired path, then the per-leaf effect
sets and condition/error facts. ``repro check --format json`` embeds
:func:`plan_summary`, the same facts as data.
"""

from __future__ import annotations

from typing import Any

from repro.check.factbase import KernelPrediction, PlanFactBase
from repro.check.facts import LeafFacts


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _kernel_shape(k: KernelPrediction) -> str:
    if k.kind == "fallback":
        return k.kind
    if k.kind == "composite":
        return f"composite/{k.mask_kind}-gate"
    return f"standard/{k.mask_kind}-mask"


def leaf_to_dict(leaf: LeafFacts) -> dict[str, Any]:
    """Compact JSON form of one leaf's effect and behaviour facts."""
    return {
        "path": leaf.path,
        "name": leaf.name,
        "writes": sorted(leaf.writes),
        "reads": sorted(leaf.condition.reads),
        "tracked_as": leaf.tracked_as,
        "condition": {
            "p_max": leaf.condition.p_max,
            "stochastic": leaf.condition.stochastic,
            "stateful": leaf.condition.stateful,
            "analyzable": leaf.condition.analyzable,
            "dead": [c.kind for c in leaf.condition.dead],
            "time": leaf.condition.time.describe(),
            "depends_on": list(leaf.condition.depends_on),
        },
        "error": {
            "describe": leaf.error.describe(),
            "requires": leaf.error.requires,
            "stochastic": leaf.error.stochastic,
            "stateful": leaf.error.stateful,
            "analyzable": leaf.error.analyzable,
            "multiplicity": leaf.error.multiplicity,
            "rewrites_timestamp": leaf.error.rewrites_timestamp,
        },
    }


def plan_summary(base: PlanFactBase) -> dict[str, Any]:
    """The fact base as JSON-able data (the ``facts`` key of ``--format json``)."""
    out = base.to_dict()
    out["leaves"] = [leaf_to_dict(leaf) for leaf in base.facts.leaves]
    return out


def render_explain(base: PlanFactBase) -> str:
    """One human-readable fact block per plan, for ``repro check --explain``."""
    lines: list[str] = []
    digest = (base.digest or "<non-declarative>")[:12]
    lines.append(f"pipeline {base.name!r}  digest={digest}")
    lines.append(
        f"  sort_stable={_yn(base.sort_stable)}  stateful={_yn(base.stateful)}  "
        f"stochastic={_yn(base.stochastic)}  "
        f"deterministically_mergeable={_yn(base.deterministically_mergeable)}"
    )
    lines.append("  kernels:")
    for pf in base.polluters:
        for node in pf.kernels:
            k = node.kernel
            depth = node.location.count(".children[")
            indent = "    " + "    " * depth
            label = (
                f"[{pf.index}] {pf.name!r} ({pf.type_name})"
                if depth == 0
                else f"{node.location} {node.name!r}"
            )
            fired = f", {k.fired_path} fired path" if k.fired_path else ""
            lines.append(f"{indent}{label}: {_kernel_shape(k)} [{k.reason}]{fired}")
            lines.append(f"{indent}    {k.detail}")
        lines.append(
            f"        picklable={_yn(pf.picklable)}  "
            f"needs_rng={_yn(pf.needs_rng)}  declarative={_yn(pf.declarative)}"
        )
        if pf.pickle_error:
            lines.append(f"        pickle error: {pf.pickle_error}")
    if base.facts.leaves:
        lines.append("  leaves:")
    for leaf in base.facts.leaves:
        lines.append(f"    {leaf.path} {leaf.name!r}")
        writes = ", ".join(sorted(leaf.writes)) or "-"
        reads = ", ".join(sorted(leaf.condition.reads)) or "-"
        lines.append(f"        writes: {writes}    reads: {reads}")
        cond = leaf.condition
        lines.append(
            f"        condition: p_max={cond.p_max:.2f}  "
            f"stochastic={_yn(cond.stochastic)}  stateful={_yn(cond.stateful)}  "
            f"time={cond.time.describe()}"
        )
        err = leaf.error
        flags = []
        if err.requires:
            flags.append(f"requires={err.requires}")
        if err.stateful:
            flags.append("stateful")
        if err.multiplicity:
            flags.append("multiplicity")
        if err.rewrites_timestamp:
            flags.append("rewrites-timestamp")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        lines.append(f"        error: {err.describe()!r}{suffix}")
    for path, type_name in base.facts.opaque:
        lines.append(f"    {path}: opaque polluter of type {type_name!r}")
    return "\n".join(lines)
