"""One cold CLI invocation, timed from inside the process.

Usage: python3 bench/invoke.py CONFIG_JSON [--setup-only]

The parent reads ``time.monotonic()`` just before it starts this process.
CLOCK_MONOTONIC is shared by every process on the machine, so ``t_ready``
(after ``bsumkit.cli`` is imported and the config validated) minus the
parent's start time is the cold set-up, and ``t_done - t_ready`` is the
experiment itself. The last stdout line is one JSON object; the exit code
is the CLI's.
"""

import time  # first, so nothing before the parent's clock read is missed

import json
import resource
import sys


def main(config_path: str, setup_only: bool) -> int:
    with open(config_path) as fh:
        config = json.load(fh)
    from bsumkit import cli

    cli.validate_config(config)
    t_ready = time.monotonic()
    code = 0 if setup_only else cli.main([config["experiment"], "--config", config_path])
    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "t_ready": t_ready,
        "t_done": t_done,
        "code": code,
        "maxrss_kb": usage.ru_maxrss,
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], "--setup-only" in sys.argv[2:]))
