"""Write perfbench/reference/<workload>.json from one seed-0 run of each workload.

Usage (from the repository root): python3 perfbench/make_reference.py [workload ...]

Run it only on a commit whose outputs are known to be right: every later run
on seed 0 is checked against these files (see check.py for the tolerance).
"""

import json
import os
import shutil
import sys

from run import BENCH_DIR, ROOT, _env, spawn
import check
import workloads


def main(names) -> int:
    for name in names or list(workloads.WORKLOADS):
        work = os.path.join(ROOT, ".perfbench_work", f"reference-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        config = os.path.join(work, "run.cfg")
        with open(config, "w") as f:
            f.write(workloads.config_text(name, 0))
        out = os.path.join(work, "out")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "plain",
               os.path.join(work, "record.json"), *workloads.argv(name, config, out)]
        child = spawn(cmd, _env(None), work, 170.0)
        if child.returncode != 0:
            print(f"{name}: tfp failed\n{child.stderr}", file=sys.stderr)
            return 1
        ref = check.make_reference(name, out)
        path = os.path.join(BENCH_DIR, "reference", f"{name}.json")
        with open(path, "w") as f:
            json.dump(ref, f, indent=0)
            f.write("\n")
        problems, _, identical = check.check_run(name, 0, out, 0, ref)
        print(f"{name}: wrote {os.path.relpath(path, ROOT)}; self-check {problems or 'ok'}, "
              f"identical={identical}")
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
