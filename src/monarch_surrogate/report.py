"""Run-report assembly, validation, and serialization.

Reports are written as strict JSON: a NaN or infinite value is written as null,
and a file holding a bare NaN or Infinity token is a ContractError.  A report
read back can be printed as flat key,value CSV (null is an empty cell).
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import ContractError

SCHEMA_VERSION = 1

# top-level key -> required type
_SCHEMA: dict[str, type] = {
    "schema_version": int,
    "config": dict,
    "checks": list,
    "params": dict,
    "flops": dict,
    "scaling": dict,
    "training": dict,
}


def new_report(config: dict) -> dict:
    empty = {key: kind() for key, kind in _SCHEMA.items()}  # in _SCHEMA's key order
    return {**empty, "schema_version": SCHEMA_VERSION, "config": config}


def validate_report(report: dict) -> None:
    """Raise ContractError when the report does not match the schema."""
    if not isinstance(report, dict):
        raise ContractError(f"report must be a mapping, got {type(report).__name__}")
    for key, expected in _SCHEMA.items():
        if key not in report:
            raise ContractError(f"report missing required key {key!r}")
        # bool is an int subclass, and True == 1: a bool is never a version
        if not isinstance(report[key], expected) or isinstance(report[key], bool):
            raise ContractError(
                f"report key {key!r} must be {expected.__name__}, "
                f"got {type(report[key]).__name__}"
            )
    if report["schema_version"] != SCHEMA_VERSION:
        raise ContractError(
            f"unsupported schema_version {report['schema_version']}, "
            f"expected {SCHEMA_VERSION}"
        )
    for entry in report["checks"]:
        if not isinstance(entry, dict):
            raise ContractError(f"check entry must be an object, got {type(entry).__name__}: {entry}")
        for field in ("name", "max_abs_diff", "threshold", "passed", "seeds_run"):
            if field not in entry:
                raise ContractError(f"check entry missing field {field!r}: {entry}")


def _finite(value):
    """value with every NaN or infinite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _reject_constant(token: str):
    raise ValueError(f"bare {token} is not JSON")


def write_report(path, report: dict) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(_finite(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            report = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ContractError(f"report {path} is not valid JSON: {exc}")
    validate_report(report)
    return report


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def report_to_rows(report: dict) -> list[tuple[str, object]]:
    """Dotted-key flattening of the full report, for CSV output; non-finite floats become None."""
    rows: list[tuple[str, object]] = []
    _flatten("", _finite(report), rows)
    return rows


def report_csv(report: dict) -> str:
    """The flattened report as CSV text: a key,value header, then one row per leaf."""
    validate_report(report)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(report_to_rows(report))
    return buf.getvalue()
