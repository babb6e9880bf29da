"""Unit tests for the command-line interface and run reports."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from monarch_surrogate import bench, verification
from monarch_surrogate.cli import build_parser, main
from monarch_surrogate.errors import ContractError
from monarch_surrogate.report import (
    new_report,
    read_report,
    report_csv,
    report_to_rows,
    validate_report,
    write_report,
)
from monarch_surrogate.tensor import Tensor


def test_report_schema_roundtrip(tmp_path):
    rep = new_report({"seed": 1})
    rep["checks"] = [
        {"name": "x", "max_abs_diff": 0.0, "threshold": 1e-8,
         "passed": True, "seeds_run": 2}
    ]
    path = tmp_path / "rep.json"
    write_report(path, rep)
    assert read_report(path) == rep


# check entries that are not objects (a string naming every field once passed
# a substring test) and a bool version (True == 1)
_MALFORMED = [("checks", [1]), ("checks", [None]),
              ("checks", ["name max_abs_diff threshold passed seeds_run"]),
              ("schema_version", True)]
_MALFORMED_IDS = ["checks-int", "checks-null", "checks-string", "bool-version"]


def test_report_validation_errors():
    with pytest.raises(ContractError):
        validate_report([])
    rep = new_report({})
    del rep["scaling"]
    with pytest.raises(ContractError):
        validate_report(rep)
    rep = new_report({})
    rep["schema_version"] = 99
    with pytest.raises(ContractError):
        validate_report(rep)
    rep = new_report({})
    rep["checks"] = [{"name": "x"}]
    with pytest.raises(ContractError):
        validate_report(rep)
    for key, value in _MALFORMED:
        rep = new_report({})
        rep[key] = value
        with pytest.raises(ContractError):
            validate_report(rep)


def test_report_flattening():
    rows = dict(report_to_rows({"a": {"b": 1}, "c": [2, 3]}))
    assert rows == {"a.b": 1, "c[0]": 2, "c[1]": 3}
    rows = dict(report_to_rows({"a": {"b": float("nan")}, "c": [float("-inf"), 2.5]}))
    assert rows == {"a.b": None, "c[0]": None, "c[1]": 2.5}  # as report show reads them back


def test_report_csv_output():
    lines = report_csv(new_report({"seed": 0})).strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("schema_version,1") for line in lines)


def test_cli_verify_select_writes_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--quick", "--select", "parameter_law",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "PASS  parameter_law" in captured
    rep = read_report(out)
    assert rep["checks"][0]["name"] == "parameter_law"
    assert rep["config"] == {"quick": True, "select": ["parameter_law"]}
    assert main(["verify", "--quick", "--out", str(out)]) == 0
    assert read_report(out)["config"] == {"quick": True, "select": None}


def test_cli_verify_nan_projection_fails_without_traceback(monkeypatch, capsys):
    real = verification.structured_projection
    monkeypatch.setattr(verification, "structured_projection", lambda *args: tuple(
        [Tensor(t.data * np.nan) for t in ts] for ts in real(*args)))
    assert main(["verify", "--quick", "--select", "lti"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  lti_decomposition" in out and "0/1 checks passed" in out


def test_cli_bench_params_and_flops(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "params", "--out", str(out)]) == 0
    rep = read_report(out)
    assert 0.0 < rep["params"]["ratio"] < 1.0
    assert main(["bench", "flops", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["flops"]["meter"]["match"] is True


def test_cli_bench_scaling_report_names_no_model(tmp_path, monkeypatch, capsys):
    # the scaling fit uses no model, so its report's config holds none
    monkeypatch.setattr(bench, "measure_wallclock", lambda: {"stub": 1.0})
    out = tmp_path / "scaling.json"
    assert main(["bench", "scaling", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["config"] == {} and rep["scaling"]["wallclock"] == {"stub": 1.0}
    capsys.readouterr()


def test_cli_train_and_report_show(tmp_path, capsys):
    out = tmp_path / "train.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"data": {"samples": 80, "period": 8.0, "l_in": 8, "l_out": 4},
         "train": {"d_model": 8, "heads": 2, "layers": 1, "d_ff": 16}}
    ))
    code = main(["train", "sine", "--epochs", "1",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert read_report(out)["training"]["epochs_run"] == 1
    capsys.readouterr()
    assert main(["report", "show", str(out)]) == 0
    assert '"schema_version": 1' in capsys.readouterr().out
    assert main(["report", "show", str(out), "--format", "csv"]) == 0


# an 80-sample sine series and a step size that blows the first update up
DIVERGING = {"data": {"samples": 80, "period": 8.0, "l_in": 8, "l_out": 4},
             "train": {"d_model": 4, "heads": 2, "layers": 1, "d_ff": 8, "lr": 1e300}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
@pytest.mark.parametrize("variant", ["surrogate", "dense"])
def test_cli_diverging_train_exits_1_with_one_line(tmp_path, capsys, variant):
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(DIVERGING))
    assert main(["train", "sine", "--variant", variant, "--epochs", "1",
                 "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and "Traceback" not in captured.err
    training = read_report(out)["training"]
    assert training["failed"] is True and training["test_mse"] is None


def _strict_json(token):
    raise AssertionError(f"bare {token} in a report")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--quick", "--select", "monarch_oracle"], 1),  # its oracle sees NaN
        (["bench", "params"], 0),
        (["bench", "flops"], 0),
        (["train", "sine", "--variant", "dense", "--epochs", "1", "--config", "cfg.json"], 1),
    ],
    ids=["verify-nan-check", "bench-params", "bench-flops", "train-diverged"],
)
def test_every_report_msb_writes_is_strict_json(monkeypatch, tmp_path, argv, code):
    real = verification.monarch_apply  # only the verify checks call it through this name
    monkeypatch.setattr(verification, "monarch_apply",
                        lambda *args: Tensor(real(*args).data * np.nan))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(DIVERGING))
    assert main(argv + ["--out", "r.json"]) == code
    json.loads((tmp_path / "r.json").read_text(), parse_constant=_strict_json)


def test_cli_train_rejects_model_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_model": 8, "heads": 4}}))
    assert main(["train", "sine", "--epochs", "1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(key in err for key in ("d_model", "heads", "layers", "d_ff"))


@pytest.mark.parametrize(
    "sections, command, reads",
    [
        ({"train": {"epochs": 3}}, ["bench", "params"], ["model"]),
        ({"data": {"samples": 80}}, ["bench", "params"], ["model"]),
    ],
    ids=["bench-train", "bench-data"],
)
def test_cli_rejects_sections_the_command_does_not_read(tmp_path, capsys, sections, command,
                                                        reads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(sections))
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(word in err for word in reads)
    assert not (tmp_path / "r.json").exists()


def test_cli_seed_precedence(tmp_path):
    out, cfg = tmp_path / "r.json", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"samples": 80, "period": 8.0, "l_in": 8, "l_out": 4},
                               "train": {"d_model": 4, "heads": 1, "layers": 1, "d_ff": 4}}))
    train = ["train", "sine", "--epochs", "1", "--config", str(cfg), "--out", str(out)]
    assert main(train) == 0
    assert read_report(out)["config"]["seed"] == 0
    assert main(train + ["--seed", "9"]) == 0
    assert read_report(out)["config"]["seed"] == 9


@pytest.mark.parametrize("command", [["train", "sine", "--epochs", "1"]])
def test_cli_negative_seed_exits_2_with_one_line(capsys, command):
    assert main(command + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]


FLAGS = {
    "verify": {"--out", "--select", "--quick"},
    "bench": {"--out", "--config"},
    "train": {"--out", "--config", "--seed", "--variant", "--epochs"},
    "report": {"--format"},
}


def _declared_flags() -> dict[str, set[str]]:
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_each_command_declares_only_the_flags_it_reads():
    assert _declared_flags() == FLAGS


def test_readme_lists_each_commands_flags_as_the_parser_declares_them():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # one bullet per command: - `verify`: `--out`, `--select`, `--quick`. ...
    listed = {m[1].split()[0]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
              for m in re.finditer(r"^- `([a-z ]+)`: (`--[^.]*)", readme, re.M)}
    assert listed == _declared_flags()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "0"],
        ["verify", "--config", "cfg.json"],
        ["bench", "flops", "--seed", "0"],
        ["report", "show", "r.json", "--seed", "5"],
        ["report", "show", "r.json", "--config", "cfg.json"],
        ["report", "show", "r.json", "--out", "x"],
        ["verify", "--format", "csv"],
        ["bench", "params", "--format", "csv"],
        ["train", "sine", "--format", "csv"],
    ],
    ids=["verify-seed", "verify-config", "bench-seed", "report-seed", "report-config",
         "report-out", "verify-format", "bench-format", "train-format"],
)
def test_cli_flag_a_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"msb: error: unrecognized arguments: {' '.join(argv[-2:])}"
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", _MALFORMED, ids=_MALFORMED_IDS)
def test_report_show_malformed_report_exits_2_with_one_line(tmp_path, capsys, key, value):
    rep = new_report({})
    rep[key] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    assert main(["report", "show", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_bad_inputs_exit_2(tmp_path):
    assert main(["report", "show", str(tmp_path / "missing.json")]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"model": {"width": 3}}))
    assert main(["bench", "params", "--config", str(bad_cfg)]) == 2
    assert main(["verify", "--quick", "--select", "no_such_check"]) == 2


def test_cli_verify_select_with_no_name_exits_2_with_one_line(capsys):
    # an empty --select matches no check; it must not run the whole suite
    assert main(["verify", "--quick", "--select"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: no check name contains any of []"]
    # an empty name is contained in every check name; it must not select them all
    assert main(["verify", "--quick", "--select", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: select holds an empty name, which every check name contains"]


def test_cli_verify_with_no_gradient_probe_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setitem(verification.QUICK, "gradient_probes", 0)
    assert main(["verify", "--quick", "--select", "layer_gradients"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: layer_gradients needs probes >= 1, got 0"]


@pytest.mark.parametrize(
    "command, bad_file",
    [
        (["bench", "params", "--config"], "dir"),
        (["bench", "params", "--config"], "non-utf8"),
        (["report", "show"], "dir"),
        (["report", "show"], "non-utf8"),
        (["report", "show"], "malformed-json"),
        (["report", "show"], "bare-nan"),
    ],
    ids=["config-dir", "config-non-utf8", "report-dir", "report-non-utf8", "report-malformed",
         "report-bare-nan"],
)
def test_cli_unreadable_input_file_exits_2_with_one_line(tmp_path, capsys, command, bad_file):
    path = tmp_path / bad_file
    if bad_file == "dir":
        path.mkdir()
    elif bad_file == "non-utf8":
        path.write_bytes(b'{"model": "\xff"}')
    elif bad_file == "bare-nan":  # what json.dump writes for a NaN unless told not to
        path.write_text(json.dumps({**new_report({}), "training": {"test_mse": float("nan")}}))
    else:
        path.write_text('{"schema_version": 1,')
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, command",
    [
        ('{"model": {"d_model": 8', ["bench", "params"]),  # malformed JSON
        ('{"train": {"width": 3}}', ["train", "sine"]),  # unknown train key
        ('{"data": {"length": 3}}', ["train", "sine"]),  # unknown data key
        ('{"train": {"seed": 3}}', ["train", "sine"]),  # set by --seed
        ('{"model": {"heads": 0}}', ["bench", "params"]),  # would divide by zero
        ('{"train": {"heads": 0}}', ["train", "sine"]),
        ('{"model": {"d_model": "512"}}', ["bench", "params"]),
        # pads to a 16-wide surrogate FFN, narrower than d_model
        ('{"model": {"d_model": 64, "heads": 4, "d_ff": 16, "n_seq": 8}}', ["bench", "params"]),
        ('{"train": {"lr": NaN}}', ["train", "sine"]),  # json reads NaN and Infinity
        ('{"data": {"amplitude": Infinity}}', ["train", "sine"]),
        ('{"data": {"noise_std": -0.5}}', ["train", "sine"]),
        ('{"train": {"dropout": 0.1}}', ["train", "sine"]),  # no layer has dropout
        ('{"train": {"lr": -0.003}}', ["train", "sine"]),  # would climb the loss
        ('{"train": {"lr": 0}}', ["train", "sine"]),
        ('{}', ["train", "sine", "--epochs", "0"]),  # overrides the default --epochs 1
        ('{"train": {"epochs": 3}}', ["train", "sine"]),  # set by --epochs
        ('{"train": {"variant": "dense"}}', ["train", "sine"]),  # set by --variant
        ('{"data": {"seed": 3}}', ["train", "sine"]),  # set by --seed
        ('{"model": {"d_model": 8, "heads": 4}}', ["bench", "scaling"]),  # builds no model
    ],
    ids=["malformed-json", "unknown-train-key", "unknown-data-key", "train-seed", "zero-heads",
         "train-zero-heads", "non-integer", "narrow-ffn", "nan", "infinity", "negative-noise",
         "dropout", "negative-lr", "zero-lr", "zero-epochs", "train-epochs", "train-variant",
         "data-seed", "scaling-config"],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, text, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = command[:2] + ["--epochs", "1"] * (command[0] == "train") + command[2:]
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    flag_set = re.fullmatch(r'\{"(\w+)": \{"(seed|epochs|variant)": .*', text)
    if flag_set:  # a key only a flag sets names that flag
        section, key = flag_set.groups()
        assert f"{section}.{key} is set by --{key}, not by --config" in err
