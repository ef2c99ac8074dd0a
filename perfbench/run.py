"""oboyu_ray benchmark: index build and single-query search (hot and tail).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--cpus C]

Run from the repository root.  Workloads: ``build``, ``search_hot`` and
``search_tail`` (see ``session.py``).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Sampled results
are checked against the brute-force oracle after the timed window.

The run happens in a child process in its own process group, under a
watchdog: a hang becomes a recorded failure naming the phase, and every
process the run started is killed before this one exits.  The last stdout
line is one compact JSON object; the full result goes to
``.perfbench_work/last-<workload>.json``.  Exit code: 0 when every op
succeeded and every checked result matched, 1 otherwise, 2 when the
repository is not there to benchmark.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WATCHDOG_S = 170
AF_UNIX_MAX = 107
RAY_SOCKET_SUFFIX = 64  # /session_<date>_<time>_<us>_<pid>/sockets/plasma_store


def ray_temp_dir() -> str:
    """The dir for Ray's session files: inside the checkout unless the
    socket paths under it would be too long for AF_UNIX, else a fresh dir
    under the system temp dir."""
    inside = os.path.join(ROOT, ".pbray")
    if len(inside) + RAY_SOCKET_SUFFIX <= AF_UNIX_MAX:
        os.makedirs(inside, exist_ok=True)
        return inside
    return tempfile.mkdtemp(prefix="pbray")


def remove_ray_session(ray_tmp: str, pid: int) -> None:
    """Delete the session dir Ray made for the process ``pid`` (its name
    ends in that pid), the ``session_latest`` link if it now dangles, and
    ``ray_tmp`` itself once empty."""
    for name in glob.glob(os.path.join(ray_tmp, f"session_*_{pid}")):
        shutil.rmtree(name, ignore_errors=True)
    latest = os.path.join(ray_tmp, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.unlink(latest)
    try:
        os.rmdir(ray_tmp)
    except OSError:
        pass  # another run's session is still there


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def result_line(res: dict) -> str:
    """The compact last stdout line."""
    return json.dumps({"correct": res["failed"] == 0, "attempted": max(int(res["attempted"]), 1),
                       "failed": int(res["failed"]), "metrics": res["metrics"]},
                      separators=(",", ":"))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", type=int, default=2, help="Ray logical CPUs")
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "oboyu_ray", "pipelines", "query.py")):
        print(f"no oboyu_ray package under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from session import WORKLOADS

    if a.workload not in WORKLOADS:
        print(f"unknown workload {a.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_tmp = ray_temp_dir()
    out_path = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "session.log")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, HERE]),
               RAY_USAGE_STATS_ENABLED="0", PYTHONUNBUFFERED="1")
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--cpus", str(a.cpus), "--work", run_dir,
           "--root", ROOT, "--ray-tmp", ray_tmp, "--out", out_path]
    error = None
    with open(log_path, "w") as log:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                 start_new_session=True)
        try:
            rc = child.wait(timeout=WATCHDOG_S)
            if rc != 0:
                error = f"session exited with code {rc}"
        except subprocess.TimeoutExpired:
            error = f"watchdog: no result after {WATCHDOG_S} s"
        finally:
            kill_group(child.pid)  # the child and any Ray process it left
            child.wait()
            wait_group_gone(child.pid)
    if error is not None:
        try:
            with open(os.path.join(run_dir, "phase")) as f:
                error += f" in phase {f.read().strip()!r}"
        except OSError:
            pass

    if error is None:
        with open(out_path) as f:
            res = json.load(f)
    else:
        with open(log_path, errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        print(error, file=sys.stderr)
        res = {"workload": a.workload, "seed": a.seed, "trace": a.trace, "attempted": 1,
               "failed": 1, "errors": [error], "metrics": {}}
    with open(os.path.join(WORK, f"last-{a.workload}.json"), "w") as f:
        json.dump(res, f, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    remove_ray_session(ray_tmp, child.pid)

    samples = res.get("samples", {})
    for name, m in res["metrics"].items():
        n = samples.get("op" if name.startswith("op_") else name.split(".")[0], "-")
        print(f"{a.workload:12s} {name:36s} {m['value']:14.4f} {m['unit']:6s} samples={n}")
    for e in res["errors"]:
        print(f"FAILED: {e}")
    print(result_line(res))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
