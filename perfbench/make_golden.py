#!/usr/bin/env python3
"""Write perfbench/golden/<workload>.txt: the digest of every op's outputs for
ops 0 .. golden_ops-1 at the default seed, one per line.

    python3 perfbench/make_golden.py [workload ...]

Run it only at a commit whose outputs are the reference: every later run at
the default seed fails an op whose digest differs, because a speed-up that
changes an output bit is a bug.
"""

import os
import sys

import run


def main(names) -> int:
    if not run._import_library():
        print("run from the root of an ossprim checkout", file=sys.stderr)
        return 2
    import workloads

    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        state = wl.setup(workloads.DEFAULT_SEED)
        log = run.run_ops(wl, state, [], ops=wl.golden_ops)
        if log.failed:
            print(f"{name}: {log.failed} ops failed their checks; no digests written",
                  file=sys.stderr)
            return 1
        path = os.path.join(run.HERE, "golden", f"{name}.txt")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(f"# {name}: sha256[:16] of op outputs, ops 0..{log.ops - 1}, "
                    f"seed {workloads.DEFAULT_SEED}\n")
            f.writelines(d + "\n" for d in log.digests)
        print(f"{name}: {log.ops} digests in {log.wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
