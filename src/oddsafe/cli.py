"""Command-line entry point.

Exit codes: 0 compliant/success, 1 requirement violation or synthesis
failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import experiments
from .errors import OddsafeError
from .dtmc import rank_situations, require_checkable
from .prism import export_model, export_properties
from .proplang import parse_properties_file
from .scg import decode, load_scg, read_json, write_json_lines


def _load_properties(path: str):
    return parse_properties_file(read_json(path))


def _load_config(cls, args):
    """The experiment config: the file's keys over `cls`'s defaults, then the
    --seed and --max-removals options when given."""
    config = decode(cls, read_json(args.config) if args.config else {})
    options = {"seed": args.seed, "max_removals": args.max_removals}
    return dataclasses.replace(config, **{k: v for k, v in options.items() if v is not None})


#: how many situations one written chunk of a report holds
CHUNK_ROWS = 4096


def _chunks(template: str, rows, separator: str):
    """`template % row` for each row, joined by `separator`, a few thousand
    rows per string: the whole text is never held in memory."""
    rows, prefix = iter(rows), ""
    while batch := list(islice(rows, CHUNK_ROWS)):
        yield prefix + separator.join(map(template.__mod__, batch))
        prefix = separator


def _members(template: str, rows):
    """A JSON object nested one level deep in json's indent=2 layout, one
    `template % row` member per row; `{}` when there is none."""
    chunks = _chunks(template, rows, ",\n")
    first = next(chunks, None)
    if first is None:
        yield "{}"
        return
    yield "{\n" + first
    yield from chunks
    yield "\n  }"


def _report_json(report):
    """The text json.dump(report.to_dict(), indent=2, sort_keys=True) writes,
    formatted straight from the report's arrays, in chunks.

    Keys are encoded as json encodes them and numbers with float.__repr__, as
    json does for every finite float; reach_vectors lets no other value
    through.
    """
    situations = report.situations
    rows = sorted(range(len(situations)), key=situations.__getitem__)  # sort_keys order
    columns = sorted(range(len(report.names)), key=report.names.__getitem__)
    ids = list(map(encode_basestring_ascii, map(situations.__getitem__, rows)))
    record = ",\n".join(
        # a name is text of the template: its % signs are doubled
        "      %s: {\n" % encode_basestring_ascii(report.names[j]).replace("%", "%%")
        + '        "compliant": %s,\n        "score": %s,\n        "value": %s\n      }'
        for j in columns
    )
    cells = [ids]
    for j in columns:
        cells.append(map(("false", "true").__getitem__, report.compliant[rows, j].tolist()))
        cells.append(map(float.__repr__, report.scores[rows, j].tolist()))
        cells.append(map(float.__repr__, report.values[rows, j].tolist()))
    yield '{\n  "records": '
    yield from _members("    %s: {\n" + record + "\n    }", zip(*cells))
    yield ',\n  "worst_scores": '
    yield from _members("    %s: %s", zip(ids, map(float.__repr__, report.worst[rows].tolist())))
    worst_situation = report.worst_situation
    name = "null" if worst_situation is None else encode_basestring_ascii(worst_situation)
    yield f',\n  "worst_situation": {name}\n}}\n'


def _write_report(report, streams) -> None:
    """Write the report's JSON text to every stream, chunk by chunk."""
    for chunk in _report_json(report):
        for stream in streams:
            stream.write(chunk)


def _print_table(report) -> None:
    """One line per situation, in situation order, which is the (length, id)
    order of ids s0, s1, ...; property columns in name order."""
    names = report.names if report.situations else []  # no record names a property
    columns = sorted(range(len(names)), key=names.__getitem__)
    header = ["situation"] + [f"{names[j]} value/score" for j in columns] + ["worst"]
    line = "  ".join(["%18s"] * len(header))
    out = sys.stdout
    out.write(line % tuple(header) + "\n")
    cells = [report.situations]
    for j in columns:
        marks = map((" !", "").__getitem__, report.compliant[:, j].tolist())
        cells.append(
            map(
                "%.5f/%+.5f%s".__mod__,
                zip(report.values[:, j].tolist(), report.scores[:, j].tolist(), marks),
            )
        )
    cells.append(map("%+.5f".__mod__, report.worst.tolist()))
    for chunk in _chunks(line + "\n", zip(*cells), ""):
        out.write(chunk)
    out.write(f"worst situation: {report.worst_situation}\n")


def cmd_check(args) -> int:
    scg = load_scg(args.scg)
    properties = _load_properties(args.properties)
    sid = args.situation
    if sid is not None and (not scg.is_situation(sid) or sid in scg.sunk):
        raise OddsafeError(f"no record for situation {sid!r}")  # before any output
    report = rank_situations(scg, properties)
    stdout = [sys.stdout] if args.format == "json" else []
    if not stdout:
        _print_table(report)
    if args.out:
        with open(args.out, "w") as fh:
            _write_report(report, stdout + [fh])
    elif stdout:
        _write_report(report, stdout)
    if sid is not None:
        row = report.situations.index(sid)
        return 0 if report.compliant[row].all() else 1
    return 0 if report.all_compliant() else 1


def _write_records(records, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "variants.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(experiments.CSV_HEADER)
        for record in records:
            writer.writerow(record.to_csv_row())
    with open(out_dir / "variants.json", "w") as fh:
        json.dump([r.to_dict() for r in records], fh, indent=2)
        fh.write("\n")
    if fmt == "table":
        widths = [4, 22, 12, 8, 28]
        print("  ".join(h.ljust(w) for h, w in zip(experiments.CSV_HEADER, widths)))
        for record in records:
            print(
                "  ".join(c.ljust(w) for c, w in zip(record.to_csv_row(), widths))
            )


def cmd_experiment_rq1(args) -> int:
    config = _load_config(experiments.VariantConfig, args)
    records = experiments.run_variants(config)
    out_dir = Path(args.out or "rq1-out")
    _write_records(records, out_dir, args.format)
    rate = experiments.rescue_rate(records)
    violating = sum(1 for r in records if r.properties_violated)
    rescued = sum(1 for r in records if r.properties_violated and r.save_success)
    if rate is None:
        print("rescue rate: n/a (no violating variants)")
    else:
        print(f"rescue rate: {rescued}/{violating} = {rate:.2f}")
    return 0


def cmd_experiment_rq2(args) -> int:
    config = _load_config(experiments.TimelineConfig, args)
    result = experiments.run_timeline(config)
    out_dir = Path(args.out or "rq2-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json_lines(result.baseline_log, out_dir / "baseline.jsonl")
    write_json_lines(result.adaptive_log, out_dir / "adaptive.jsonl")
    baseline_failures = result.baseline_failures()
    adaptations = result.adaptation_entries()
    print(f"baseline failures: {len(baseline_failures)}"
          + (f" (first at t={baseline_failures[0].t})" if baseline_failures else ""))
    if adaptations:
        first = adaptations[0]
        print(
            f"adaptation at t={first.t}: sank {first.outcome.avoided}, "
            f"directive {first.directive.kind}"
        )
    else:
        print("no adaptation triggered")
    leftover = result.failures_after_adaptation_in_episode()
    print(f"failures after adaptation within its episode: {len(leftover)}")
    return 0


def cmd_bench(args) -> int:
    rows = experiments.run_bench(
        args.n, horizon=args.horizon, density=args.density,
        seed=args.seed if args.seed is not None else 0,
    )
    out = Path(args.out or "bench.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(experiments.BENCH_CSV_HEADER)
        for row in rows:
            writer.writerow([row["n"], row["states"], row["transitions"],
                             f"{row['ms']:.3f}"])
    for row in rows:
        print(f"n={row['n']:>4} states={row['states']:>4} "
              f"transitions={row['transitions']:>7} ms={row['ms']:.3f}")
    return 0


def _bench_sizes(text: str) -> list[int]:
    """Type of bench --n: comma-separated situation counts, each >= 2."""
    sizes = [int(x) for x in text.split(",")]  # argparse reports a ValueError as misuse
    if min(sizes) < 2:
        raise argparse.ArgumentTypeError(f"sizes must be >= 2: {text!r}")
    return sizes


def _non_negative(text: str) -> int:
    """Type of --seed and --max-removals: an integer >= 0."""
    number = int(text)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return number


def _bench_density(text: str) -> float:
    """Type of bench --density: the filled fraction of each row, in (0, 1]."""
    density = float(text)
    if not 0.0 < density <= 1.0:
        raise argparse.ArgumentTypeError(f"density must be in (0, 1]: {text!r}")
    return density


def cmd_export_prism(args) -> int:
    scg = load_scg(args.scg)
    properties = _load_properties(args.properties)
    model = export_model(scg, args.situation)  # names are checked before anything is written
    require_checkable({f.label for f in scg.failures}, properties)  # as check rejects it
    out_dir = Path(args.out or "prism-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.pm").write_text(model)
    (out_dir / "props.pctl").write_text(export_properties(properties))
    print(f"wrote {out_dir / 'model.pm'} and {out_dir / 'props.pctl'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddsafe",
        description="Situation-grid verification and safe controller adaptation",
    )
    parser.add_argument("--seed", type=_non_negative, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument(
        "--format", choices=("json", "table"), default="table"
    )
    parser.add_argument("--max-removals", type=_non_negative, default=None, dest="max_removals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify an SCG against properties")
    p.add_argument("scg")
    p.add_argument("properties")
    p.add_argument("--situation", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("experiment-rq1", help="drift-variant adaptation outcomes")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(func=cmd_experiment_rq1)

    p = sub.add_parser("experiment-rq2", help="baseline vs adaptive timeline")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(func=cmd_experiment_rq2)

    p = sub.add_parser("bench", help="criticality-scoring scalability ladder")
    p.add_argument("--n", type=_bench_sizes, default="10,20,40,80,160")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--density", type=_bench_density, default=1.0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-prism", help="emit PRISM model and property files")
    p.add_argument("scg")
    p.add_argument("situation")
    p.add_argument("properties")
    p.set_defaults(func=cmd_export_prism)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, OddsafeError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
