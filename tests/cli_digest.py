"""Run a fixed set of tripletlab CLI commands against one source tree and print
a digest line per command: its exit code, the sha256 of its stdout and the
sha256 of every CSV it wrote.

    python tests/cli_digest.py --src <tree>/src --out <empty dir> > digest.txt

Two trees give the same output exactly when their digest files are equal, so
comparing a change with its parent is a diff of two such files. Each command
runs in --out with relative --outdir and --data paths, so stdout, which names
the files written, does not depend on where --out is. The whole set takes
well under a minute on two cores.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

TASK = ["--d", "3", "--n-plus", "8", "--n-minus", "7"]
STABILITY = ["stability", "--d", "3", "--n-plus", "8", "--n-minus", "8", "--trials", "3"]
SWEEP = ["--n-grid", "4 6 8", "--trials-per-n", "2", "--population-m", "2000", "--d", "3"]
LOW_NOISE = ["--B", "0.5", "--separation", "0.8", "--noise-scale", "0.15"]

# (name, argv); each command writes into a directory named after it
COMMANDS = [
    ("gen", ["gen", "--seed", "11"] + TASK),
    ("sgd", ["sgd", "--seed", "12", "--T", "300"] + TASK),
    ("sgd_data", ["sgd", "--seed", "13", "--data", "gen/dataset.csv", "--T", "200"]),
    ("rrm", ["rrm", "--seed", "14", "--lam", "0.1"] + TASK),
    ("rrm_data", ["rrm", "--seed", "15", "--data", "gen/dataset.csv", "--lam", "0.05"]),
    ("stability_rrm", STABILITY + ["--seed", "16", "--trainer", "rrm", "--lam", "0.2",
                                   "--protocol", "uniform", "--probe-size", "200"]),
    ("stability_sgd", STABILITY + ["--seed", "17", "--trainer", "sgd", "--T", "100",
                                   "--protocol", "uniform", "--probe-size", "200"]),
    ("stability_constant", STABILITY + ["--seed", "18", "--trainer", "constant",
                                        "--protocol", "uniform", "--probe-size", "200"]),
    ("stability_on_average", ["stability", "--seed", "14", "--n-plus", "10", "--n-minus", "10",
                              "--d", "3", "--trials", "3", "--lam", "0.2", "--trainer", "rrm",
                              "--protocol", "on-average", "--triplet-subsample", "5"]),
    ("sweep_sgd", ["sweep", "--seed", "20", "--algorithm", "sgd"] + SWEEP),
    ("sweep_rrm", ["sweep", "--seed", "21", "--algorithm", "rrm"] + SWEEP),
    ("excess", ["excess", "--seed", "22", "--algorithm", "rrm", "--n-grid", "4 5 6",
                "--trials-per-n", "1", "--population-m", "2000", "--d", "2"]),
    # the SGD path through the excess runner
    ("excess_sgd", ["excess", "--seed", "29", "--algorithm", "sgd"] + SWEEP),
    ("optimistic", ["optimistic", "--seed", "23", "--d", "3", "--n-grid", "8 12 16",
                    "--trials-per-n", "2", "--population-m", "2000"] + LOW_NOISE),
    ("check", ["check", "--seed", "24", "--probes", "300", "--grad-probes", "50"]),
    ("rrm_tiny_lam", ["rrm", "--seed", "3", "--lam", "1e-18", "--n-plus", "12",
                      "--n-minus", "10", "--d", "3"]),
    # a population sample of two chunks (risk.SAMPLE_CHUNK rows each at most)
    ("optimistic_chunks", ["optimistic", "--seed", "25", "--d", "3", "--n-grid", "8 12 16",
                           "--trials-per-n", "2", "--population-m", "70000"] + LOW_NOISE),
    # RRM at n = 64, whose Newton sweeps have 4 anchor blocks and split across CPUs
    ("rrm_64", ["rrm", "--seed", "26", "--lam", "0.1", "--d", "3", "--n-plus", "64",
                "--n-minus", "64"]),
    ("stability_rrm_64", ["stability", "--seed", "27", "--d", "3", "--n-plus", "64",
                          "--n-minus", "64", "--trials", "2", "--trainer", "rrm", "--lam", "0.2",
                          "--protocol", "uniform", "--probe-size", "200"]),
    # SGD at d = 5 (p = 15 coordinates) over several bulk index draws
    ("sgd_d5", ["sgd", "--seed", "28", "--d", "5", "--n-plus", "20", "--n-minus", "20",
                "--T", "6000"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src/ directory of the tree to run")
    parser.add_argument("--out", required=True, help="directory for the commands' outputs")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    for name, command in COMMANDS:
        run = subprocess.run(
            [sys.executable, "-m", "tripletlab.cli", *command, "--outdir", name],
            cwd=out, env=env, capture_output=True,
        )
        csvs = sorted((out / name).glob("*.csv"))
        fields = [f"{csv.name}={sha256(csv.read_bytes())}" for csv in csvs]
        print(name, f"exit={run.returncode}", f"stdout={sha256(run.stdout)}", *fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
