"""Print the SHA-256 of each experiment's CSV at seed 1.

    python tools/desk_hashes.py [--preset {desk,paper}] [experiment ...]

Runs the named CLI experiments (default: all four) with the default config
({}), --seed 1 and the given preset (default desk), and prints one
"sha256  experiment" line per CSV, e.g. `--preset paper m-grid` for the one
paper hash of the m-grid.  A change meant to keep every output bit-identical keeps these
lines.  The package is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modunfold.cli import main as cli_main  # noqa: E402
from modunfold.experiments import EXPERIMENTS  # noqa: E402


def csv_hash(experiment: str, preset: str = "desk") -> str:
    """Hex SHA-256 of the CSV that `modunfold <experiment> --seed 1` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "config.json"), Path(tmp, "out.csv")
        config.write_text("{}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([experiment, "--config", str(config), "--seed", "1",
                             "--out", str(out), "--preset", preset])
        if code != 0:
            raise SystemExit(f"{experiment} exited {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "paper"), default="desk")
    # No choices=: argparse checks an empty list against them and fails.
    parser.add_argument("experiments", nargs="*", metavar="experiment",
                        help=f"any of {', '.join(EXPERIMENTS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.experiments) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiment {', '.join(unknown)}")
    for experiment in args.experiments or EXPERIMENTS:
        print(f"{csv_hash(experiment, args.preset)}  {experiment}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
