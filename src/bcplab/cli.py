"""Command line entry point.

``bcplab run --config cfg.json [--seed N] [--out report.json]
[--format json|csv] [--jobs K]`` plus the preset shortcuts
``bcplab topology|ck|op|transfer``. Exit codes: 0 pass or degenerate,
1 falsified, 2 config error. ``BCPLAB_JOBS`` sets the worker count when
``--jobs`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (EXIT_CODES, ConfigError, Report, ScenarioConfig, _integer,
                      report_to_csv, run_scenario)

PRESETS = {
    "topology": ScenarioConfig("topology", {"kind": "convergent_model", "N": 5, "m": 2}, 1),
    "ck": ScenarioConfig("ck_cover", {"nodes": 8, "lam": 1.2, "trials": 1000}, 7),
    "op": ScenarioConfig("lp_operator", {"n": 2, "m": 2, "p": 2.0, "lam": 1.1, "trials": 50}, 11),
    "transfer": ScenarioConfig("transfer_op", {"lam": 1.5, "delta": 0.05, "trials": 100}, 13),
}


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel trial workers (default 1; env BCPLAB_JOBS)")


def _build_parser():
    parser = argparse.ArgumentParser(prog="bcplab")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario from a JSON config")
    run.add_argument("--config", required=True)
    _add_common(run)
    for name in PRESETS:
        p = sub.add_parser(name, help=f"preset {PRESETS[name].scenario} scenario")
        _add_common(p)
    return parser


def _load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("scenario"), str):
        raise ConfigError("config must be an object with a string 'scenario' field")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config 'params' must be an object")
    return ScenarioConfig(raw["scenario"], params, _integer(raw.get("seed", 0), "seed"))


def render_report(report: Report, fmt: str) -> str:
    if fmt == "csv":
        return report_to_csv(report)
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config)
        else:
            cfg = PRESETS[args.command]
        if args.seed is not None:
            cfg = ScenarioConfig(cfg.scenario, cfg.params, args.seed)
        jobs = args.jobs
        if jobs is None:
            jobs = _integer(os.environ.get("BCPLAB_JOBS", "1"), "BCPLAB_JOBS")
        report = run_scenario(cfg, jobs=max(1, jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{report.verdict}: report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_CODES[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
