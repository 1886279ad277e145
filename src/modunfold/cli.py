"""Command-line entry point.

    modunfold <experiment> --config FILE [--seed N] [--out CSV] [--preset P]

Exit codes: 0 on success, 2 on any bad parameter (every parameter check
raises ConfigurationError), 3 when every grid point was infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigurationError
from .experiments import EXPERIMENTS, emit_csv, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modunfold",
        description="Modulo-ADC simulation and sliding-DFT unfolding experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="JSON config file ({} for defaults)")
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (required unless theory-only)")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--preset", choices=("desk", "paper"), default="desk",
                        help="parameter scale preset")
    return parser


# Row fields the summary leaves out: the status and reason go in the tag,
# and the experiment and seed are the same on every row.
_UNSHOWN = ("experiment", "seed", "status", "reason")


def _summarize(rows, elapsed_ms: float) -> None:
    """One line per row of its set fields, then the ok and skipped counts."""
    ok = [r for r in rows if r.status == "ok"]
    skipped = [r for r in rows if r.status != "ok"]
    for row in rows:
        fields = ", ".join(
            f"{f.name}={getattr(row, f.name)}" for f in dataclasses.fields(row)
            if f.name not in _UNSHOWN and getattr(row, f.name) is not None)
        tag = "" if row.status == "ok" else f"  [skipped: {row.reason}]"
        print(f"  {fields}{tag}")
    print(f"{len(ok)} point(s), {len(skipped)} skipped, {elapsed_ms:.0f} ms total")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.experiment, preset=args.preset,
                          seed=args.seed, out=args.out)
        rows, elapsed_ms = run_experiment(cfg)
        _summarize(rows, elapsed_ms)
        if cfg.out:
            emit_csv(rows, cfg.out)
            print(f"wrote {cfg.out}")
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if all(r.status != "ok" for r in rows):
        print("error: every grid point was infeasible", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
