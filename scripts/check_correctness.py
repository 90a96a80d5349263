"""Run every driver query against its DuckDB oracle (the local replica of the
driver's correctness gate). Usage:

    python scripts/check_correctness.py [query1,query2|all] [sf_dir]

Owns its Ray session (the driver contract itself never does)."""

import os
import sys
import time
import traceback

# run as a script, sys.path[0] is scripts/: put the repo root ahead of it
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from core_ray.compare import check_query
    from core_ray.queries import QUERIES

    names = (
        list(QUERIES)
        if len(sys.argv) < 2 or sys.argv[1] == "all"
        else sys.argv[1].split(",")
    )
    sf = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"
    fails = 0
    for n in names:
        t0 = time.time()
        try:
            r = check_query(n, sf)
            status = "OK " if r["ok"] else "FAIL"
            fails += 0 if r["ok"] else 1
            detail = {k: v for k, v in r.items() if k != "ok"}
            print(f"{status} {n:24s} {time.time()-t0:6.1f}s {detail}", flush=True)
        except Exception as e:
            fails += 1
            print(f"ERR  {n:24s} {time.time()-t0:6.1f}s {type(e).__name__}: {e}", flush=True)
            traceback.print_exc()
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
