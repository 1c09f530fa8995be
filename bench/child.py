"""One benchmark repetition: a fresh process running the noisytrain CLI.

Usage: python3 bench/child.py JOB.json

The job file names the CLI arguments, whether to trace, and where to
write the result.  The result holds monotonic timestamps for the first
training epoch and for the return of the command (the parent took its
own before spawning this process), peak RSS, the exit status and, when
traced, the spans and counts.  With "setup_only" the process stops at
the first training epoch.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write_json(payload: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(payload, f)


def main() -> int:
    with open(sys.argv[1]) as f:
        job = json.load(f)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import noisytrain.cli as cli
    from noisytrain import experiment

    recorder = None
    if job["trace"]:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)

    result = {"t_first_epoch": None}
    warmup_train = experiment.warmup_train

    def first_epoch_hook(*args, **kwargs):
        if result["t_first_epoch"] is None:
            result["t_first_epoch"] = now()
            if job["setup_only"]:
                write_json(result, job["result"])
                os._exit(0)
        return warmup_train(*args, **kwargs)
    experiment.warmup_train = first_epoch_hook

    start = time.perf_counter()
    code = cli.main(job["argv"])
    end = time.perf_counter()
    result["t_done"] = now()
    result["exit"] = code
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["trace"] = recorder.export((start, end))
    write_json(result, job["result"])
    return code


if __name__ == "__main__":
    sys.exit(main())
