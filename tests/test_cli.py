import csv
import json
import math

import pytest

from oddsafe.cli import main
from oddsafe.scg import save_scg

from helpers import make_scg

PROPERTIES = [
    {"name": "phi1", "expression": "P < 0.5 [ F<=50 f1 ]"},
]


@pytest.fixture
def fixtures(tmp_path):
    compliant = make_scg(
        {"s0": {"s0": 0.99, "f1": 0.01}, "s1": {"s1": 1.0}}, 2
    )
    violating = make_scg(
        {"s0": {"f1": 0.9, "s0": 0.1}, "s1": {"s1": 1.0}}, 2
    )
    paths = {
        "compliant": tmp_path / "ok.json",
        "violating": tmp_path / "bad.json",
        "properties": tmp_path / "props.json",
    }
    save_scg(compliant, paths["compliant"])
    save_scg(violating, paths["violating"])
    paths["properties"].write_text(json.dumps(PROPERTIES))
    return paths


def test_check_compliant_exits_zero(fixtures, capsys):
    rc = main(["check", str(fixtures["compliant"]), str(fixtures["properties"])])
    assert rc == 0
    assert "worst situation" in capsys.readouterr().out


def test_check_violating_exits_one(fixtures):
    rc = main(["check", str(fixtures["violating"]), str(fixtures["properties"])])
    assert rc == 1


def test_check_single_situation(fixtures):
    rc = main(
        ["check", str(fixtures["violating"]), str(fixtures["properties"]),
         "--situation", "s1"]
    )
    assert rc == 0
    rc = main(
        ["check", str(fixtures["violating"]), str(fixtures["properties"]),
         "--situation", "s0"]
    )
    assert rc == 1


@pytest.mark.parametrize("situation", ["s9", "s0", ""], ids=["unknown", "sunk", "empty"])
def test_check_unknown_situation_is_usage_error(situation, fixtures, tmp_path, capsys):
    # the id is checked before anything is ranked, printed or written
    scg = fixtures["violating"]
    if situation == "s0":
        scg = tmp_path / "sunk.json"
        save_scg(make_scg({"s0": {"s0": 1.0}, "s1": {"s1": 1.0}}, 2, sunk={"s0"}), scg)
    out = tmp_path / "report.json"
    rc = main(
        ["--out", str(out), "check", str(scg), str(fixtures["properties"]),
         "--situation", situation]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: no record for situation {situation!r}\n"


def test_check_json_format_and_report_file(fixtures, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["--format", "json", "--out", str(out),
         "check", str(fixtures["compliant"]), str(fixtures["properties"])]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "records" in doc and "worst_situation" in doc
    json.loads(capsys.readouterr().out)


def test_missing_file_is_io_error(fixtures, tmp_path, capsys):
    rc = main(["check", str(tmp_path / "absent.json"), str(fixtures["properties"])])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
@pytest.mark.parametrize("argument", ["scg", "properties", "config"])
def test_an_unreadable_input_path_is_an_input_error(argument, bad, fixtures, tmp_path, capsys):
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe[\x00]\x00")  # UTF-16 with a byte-order mark
    argv = {
        "scg": ["check", str(path), str(fixtures["properties"])],
        "properties": ["check", str(fixtures["compliant"]), str(path)],
        "config": ["--out", str(tmp_path / "out"), "experiment-rq1", str(path)],
    }[argument]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_a_failure_description_that_is_not_text_is_an_input_error(fixtures, tmp_path, capsys):
    doc = json.loads(fixtures["compliant"].read_text())
    doc["failures"][0]["description"] = ["not", "text"]
    bad = tmp_path / "described.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), str(fixtures["properties"])]) == 2
    assert "$.failures[0].description" in capsys.readouterr().err


def test_an_unknown_scg_document_key_is_an_input_error(fixtures, capsys):
    # an unknown key used to be ignored, so a misspelt "sunk" checked as unsunk
    path = fixtures["compliant"]
    path.write_text(json.dumps({**json.loads(path.read_text()), "bogus": 1}))
    assert main(["check", str(path), str(fixtures["properties"])]) == 2
    assert "[$.bogus]" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["xy", {"x": 0, "y": 1}, 2], ids=["text", "object", "number"])
def test_attribute_values_that_are_no_array_are_an_input_error(values, fixtures, capsys):
    # tuple() used to split "xy" into the values x and y, and check gave a verdict
    path = fixtures["compliant"]
    doc = json.loads(path.read_text())
    doc["attributes"][0]["values"] = values
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), str(fixtures["properties"])]) == 2
    assert "$.attributes[0].values" in capsys.readouterr().err


def test_malformed_property_file_is_error(fixtures, tmp_path, capsys):
    bad = tmp_path / "badprops.json"
    bad.write_text(json.dumps([{"name": "p", "expression": "P < nope"}]))
    rc = main(["check", str(fixtures["compliant"]), str(bad)])
    assert rc == 2


@pytest.mark.parametrize("bound", ["99999999999", "9" * 5000], ids=["11-digits", "5000-digits"])
def test_step_bound_above_the_maximum_is_usage_error(bound, fixtures, tmp_path, capsys):
    # 10^11 sweeps used to run for hours, and 5,000 digits exited 1 with a
    # ValueError from int()
    props = tmp_path / "props.json"
    props.write_text(json.dumps([{"name": "p", "expression": f"P < 0.5 [ F<={bound} f2 ]"}]))
    assert main(["check", str(fixtures["compliant"]), str(props)]) == 2
    assert "step bound above the maximum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expression",
    ["P < 0.5 [ F<=\u0665 f1 ]", "P < \u0660.5 [ F<=50 f1 ]"],
    ids=["arabic-indic-horizon", "arabic-indic-bound"],
)
def test_a_non_ascii_digit_is_usage_error(expression, fixtures, tmp_path, capsys):
    # \d read the Arabic-Indic five as the horizon 5, and check gave a verdict
    props = tmp_path / "props.json"
    props.write_text(json.dumps([{"name": "p", "expression": expression}]))
    assert main(["check", str(fixtures["violating"]), str(props)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_horizon_above_the_maximum_is_usage_error(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["--out", str(out), "bench", "--n", "4", "--horizon", "10001"]) == 2
    assert "step bound above the maximum" in capsys.readouterr().err
    assert not out.exists()


def _edit_delta(doc, edit):
    edit(doc["delta"])
    return json.dumps(doc)


@pytest.mark.parametrize(
    "make_text",
    [
        lambda doc: _edit_delta(doc, lambda d: d["s0"].update(f1="abc")),
        lambda doc: _edit_delta(doc, lambda d: d.update(s0=[0.99, 0.01])),
        lambda doc: json.dumps({**doc, "delta": [doc["delta"]["s0"]]}),
        lambda doc: json.dumps({**doc, "sunk": 3}),
        lambda doc: "null",
        lambda doc: json.dumps(doc)[:-5],
    ],
    ids=[
        "non-numeric-probability",
        "list-row",
        "list-delta",
        "number-sunk",
        "null-document",
        "invalid-json",
    ],
)
def test_malformed_scg_file_is_error(make_text, fixtures, capsys):
    path = fixtures["compliant"]
    path.write_text(make_text(json.loads(path.read_text())))
    rc = main(["check", str(path), str(fixtures["properties"])])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_empty_property_file_is_usage_error(fixtures, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    rc = main(["check", str(fixtures["compliant"]), str(empty)])
    assert rc == 2
    assert "lists no property" in capsys.readouterr().err


def test_repeated_property_name_is_usage_error_and_writes_nothing(fixtures, tmp_path, capsys):
    # the first property alone is violated; a second one of the same name
    # used to replace it, so check exited 0
    props = tmp_path / "props.json"
    props.write_text(
        json.dumps(
            [
                {"name": "phi", "expression": "P < 0.001 [ F<=50 f1 ]"},
                {"name": "phi", "expression": "P < 0.99 [ F<=50 f1 ]"},
            ]
        )
    )
    report, prism = tmp_path / "report.json", tmp_path / "prism"
    assert main(["--out", str(report), "check", str(fixtures["compliant"]), str(props)]) == 2
    assert "'phi' is repeated [$[1].name]" in capsys.readouterr().err
    argv = ["--out", str(prism), "export-prism", str(fixtures["compliant"]), "s0", str(props)]
    assert main(argv) == 2
    assert "'phi' is repeated" in capsys.readouterr().err
    assert not report.exists() and not prism.exists()
    props.write_text(json.dumps(json.loads(props.read_text())[:1]))
    assert main(["check", str(fixtures["compliant"]), str(props)]) == 1


def test_invalid_json_property_file_is_error(fixtures, tmp_path, capsys):
    bad = tmp_path / "badprops.json"
    bad.write_text(json.dumps(PROPERTIES)[:-1])
    rc = main(["check", str(fixtures["compliant"]), str(bad)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["--out", str(out), "bench", "--n", "4,6", "--horizon", "5"])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "states", "transitions", "ms"]
    assert [r[0] for r in rows[1:]] == ["4", "6"]


def test_bench_at_a_given_density_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["--out", str(out), "bench", "--n", "4", "--density", "0.5"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # each of the 4 rows fills round(0.5 * 6 states) = 3 targets
    assert rows[1][:3] == ["4", "6", "12"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n", "1"],
        ["bench", "--n", "abc"],
        ["bench", "--n", "4,"],
        ["bench", "--density", "2"],
        ["bench", "--density", "-1"],
        ["bench", "--density", "0"],
        ["bench", "--density", "nan"],
        ["--estimator", "bayesian", "bench", "--n", "4"],
        ["--max-removals", "-1", "experiment-rq1"],
        ["--seed", "-1", "experiment-rq2"],  # numpy seeds no generator with these
        ["--seed", "-3000", "experiment-rq1"],
        ["--seed", "-20", "bench", "--n", "10"],
        ["--format", "csv", "bench", "--n", "4"],  # no command writes csv to stdout
    ],
)
def test_bad_option_values_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "bench.csv")] + argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_export_prism_writes_files(fixtures, tmp_path):
    out = tmp_path / "prism"
    rc = main(
        ["--out", str(out), "export-prism",
         str(fixtures["compliant"]), "s0", str(fixtures["properties"])]
    )
    assert rc == 0
    assert (out / "model.pm").read_text().startswith("dtmc")
    assert (out / "props.pctl").read_text() == 'P=? [ F<=50 "f1" ]\n'


@pytest.mark.parametrize(
    "situation, expression",
    [("s0", "P < 0.5 [ F<=50 nope ]"), ("s9", "P < 0.5 [ F<=50 f1 ]")],
    ids=["unknown-label", "unknown-situation"],
)
def test_export_prism_rejects_unknown_names_and_writes_nothing(
    situation, expression, fixtures, tmp_path, capsys
):
    props = tmp_path / "props.json"
    props.write_text(json.dumps([{"name": "p", "expression": expression}]))
    out = tmp_path / "prism"
    rc = main(["--out", str(out), "export-prism", str(fixtures["compliant"]), situation, str(props)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["check", str(fixtures["compliant"]), str(props)]) == (
        2 if situation == "s0" else 0
    )


def test_experiment_rq1_small_run(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variants": 3}))
    out = tmp_path / "rq1"
    rc = main(["--out", str(out), "experiment-rq1", str(config)])
    assert rc == 0
    assert (out / "variants.csv").exists()
    records = json.loads((out / "variants.json").read_text())
    assert len(records) == 3
    assert "rescue rate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, config",
    [
        ("experiment-rq1", {"variants": "abc"}),
        ("experiment-rq2", {"steps": "x"}),
        ("experiment-rq1", {"bogus": 1}),
        ("experiment-rq2", {"seed": True}),
        ("experiment-rq1", {"scenario": {"episodes": 3, "bogus": 1}}),
        ("experiment-rq1", {"scenario": {"failure_bias": {"f1": "x"}}}),
        ("experiment-rq2", [1]),
        ("experiment-rq1", {"drift_magnitude": 2.0}),
        ("experiment-rq2", {"drift_magnitude": 2.0}),
        ("experiment-rq1", {"variants": 0}),
        ("experiment-rq2", {"steps": 0}),
        ("experiment-rq2", {"drift_time": -1}),
        ("experiment-rq1", {"max_removals": -1}),
        ("experiment-rq2", {"max_removals": -1}),
        ("experiment-rq2", {"prior_strength_kappa": -0.5}),
        ("experiment-rq1", {"scenario": {"failure_bias": {"f1": math.nan}}}),
        ("experiment-rq1", {"scenario": {"failure_bias": {"f1": math.inf}}}),  # as 1e309 reads
        ("experiment-rq1", {"scenario": {"failure_bias": {"f1": 10**400}}}),
        ("experiment-rq1", {"scenario": {"failure_bias": {"zz": 1.0}}}),
        ("experiment-rq2", {"prior_strength_kappa": math.inf}),
        ("experiment-rq2", {"seed": -1}),
        ("experiment-rq1", {"seed": -1}),
        ("experiment-rq1", {"scenario": {"seed": -1}}),
        ("experiment-rq1", {"scenario": {"episodes": 0}}),
        ("experiment-rq1", {"scenario": {"episode_length": 0}}),
        ("experiment-rq1", {"scenario": {"episodes": 10**30}}),  # multinomial's n overflows
        ("experiment-rq1", {"scenario": {"episodes": 2**32, "episode_length": 2**31}}),
    ],
)
def test_bad_experiment_config_is_usage_error(command, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["--out", str(tmp_path / "out"), command, str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("seed", 123), ("drift_magnitude", 0.7), ("drift_time", 999)]
)
def test_rq1_rejects_a_scenario_key_it_does_not_read(key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"variants": 1, "scenario": {key: value}}))
    assert main(["--out", str(tmp_path / "out"), "experiment-rq1", str(path)]) == 2
    assert f"error: scenario.{key} is not read by rq1, which " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # its default, written out, is what rq1 runs with
    defaults = {"seed": 0, "drift_magnitude": 0.0, "drift_time": 0}
    path.write_text(json.dumps({"variants": 1, "scenario": {key: defaults[key]}}))
    assert main(["--out", str(tmp_path / "out"), "experiment-rq1", str(path)]) == 0


@pytest.mark.parametrize("weight", [100, 1e308])
def test_a_failure_bias_that_fills_a_truth_row_is_an_input_error(weight, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"variants": 2, "scenario": {"failure_bias": {"f1": weight}}}))
    assert main(["--out", str(tmp_path / "out"), "experiment-rq1", str(path)]) == 2
    assert "$.scenario" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_option_overrides_the_config_file(tmp_path):
    outputs = []
    for seed_in_file, argv in ((0, ["--seed", "3"]), (3, [])):
        config = tmp_path / f"config{seed_in_file}.json"
        config.write_text(json.dumps({"variants": 2, "seed": seed_in_file}))
        out = tmp_path / f"rq1-{seed_in_file}"
        assert main(["--out", str(out), *argv, "experiment-rq1", str(config)]) == 0
        outputs.append((out / "variants.json").read_text())
    assert outputs[0] == outputs[1]


def test_experiment_rq2_that_never_adapts_says_so(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "rq2"), "--seed", "1", "experiment-rq2"]) == 0
    out = capsys.readouterr().out
    assert "no adaptation triggered\n" in out
    assert out.endswith("failures after adaptation within its episode: 0\n")
