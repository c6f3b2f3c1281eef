"""Export of SCG-derived models to the PRISM model checker's input language.

The emitted module uses one integer state variable with guarded probabilistic
updates per SCG row; failure states become labelled self-loops.  Output is
byte-stable for a fixed input so it can be golden-file tested and compared
against the external tool.
"""

from __future__ import annotations

from .dtmc import BoundedReachProperty, build_model
from .errors import NotFoundError
from .scg import AugmentedScg


def export_model(scg: AugmentedScg, initial: str) -> str:
    """Render the DTMC with `initial` as start state as PRISM source text."""
    index = build_model(scg).space.index  # validates the SCG as every check does
    if not scg.is_situation(initial):
        raise NotFoundError(f"unknown initial situation {initial!r}")
    n = len(index)
    lines = [
        "dtmc",
        "",
        "module scg",
        f"  s : [0..{n - 1}] init {index[initial]};",
        "",
    ]
    for sid in scg.situation_ids:
        row = scg.delta[sid]
        terms = " + ".join(
            f"{row[t]!r}:(s'={index[t]})"
            for t in sorted(row, key=index.__getitem__)
        )
        lines.append(f"  [] s={index[sid]} -> {terms};")
    for fid in scg.failure_ids:
        lines.append(f"  [] s={index[fid]} -> 1.0:(s'={index[fid]});")
    lines.append("endmodule")
    lines.append("")
    for f in scg.failures:
        lines.append(f'label "{f.label}" = (s={index[f.id]});')
    return "\n".join(lines) + "\n"


def export_properties(properties: list[BoundedReachProperty]) -> str:
    """One quantitative query per property, in PRISM property syntax."""
    lines = [
        f'P=? [ F<={p.horizon} "{p.target_label}" ]' for p in properties
    ]
    return "\n".join(lines) + "\n"
