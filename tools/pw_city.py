#!/usr/bin/env python3
"""Multi-process city survey driver (the Python face of `pw_run --city`).

Spawns one `pw_run city --district=K` child per district through a
bounded process pool, then delegates the reduction to
`pw_run --city-reduce` so there is exactly one reducer implementation
(runtime/city_reduce.cpp). The reduced document is byte-identical to a
single-process `pw_run city` run — CI enforces it.

    tools/pw_city.py --smoke --processes 4 --json city.json
    tools/pw_city.py --districts 8 --scale 0.2 --json city.json

Anything this script does not recognize is forwarded to the children
verbatim (e.g. --seed=123).
"""

import argparse
import concurrent.futures
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PW_RUN = REPO / "build" / "src" / "runtime" / "pw_run"

# Mirrors the `city` ExperimentSpec (pw_run --list): 8 districts,
# 4 under --smoke. Passing --districts always wins.
DEFAULT_DISTRICTS = 8
SMOKE_DISTRICTS = 4


def run_district(pw_run, district, out_dir, flags, metrics):
    doc = out_dir / f"district{district}.json"
    cmd = [str(pw_run), "city", f"--district={district}", f"--json={doc}"]
    if metrics:
        cmd += [f"--metrics={doc}.child.metrics.json",
                f"--timeline={doc}.child.trace.json"]
    cmd += flags
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # Exit 1 still writes a document (failed: true, reduced by OR);
    # anything else means the child never produced its document.
    if proc.returncode not in (0, 1) or not doc.exists():
        sys.stderr.write(f"district {district} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}"
                         f"{proc.stderr}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pw-run", type=pathlib.Path, default=DEFAULT_PW_RUN,
                        help="pw_run binary (default: %(default)s)")
    parser.add_argument("--processes", type=int, default=4,
                        help="process-pool bound (default: %(default)s)")
    parser.add_argument("--districts", type=int, default=None,
                        help="district count (default: the spec's 8, "
                             "or 4 under --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="forwarded to the children")
    parser.add_argument("--json", default=None,
                        help="write the reduced document here")
    parser.add_argument("--metrics", default=None,
                        help="collect per-child metrics and write the "
                             "merged block here")
    parser.add_argument("--keep-dir", type=pathlib.Path, default=None,
                        help="write district documents here (kept) "
                             "instead of a scratch directory")
    args, forwarded = parser.parse_known_args()

    districts = args.districts
    if districts is None:
        districts = SMOKE_DISTRICTS if args.smoke else DEFAULT_DISTRICTS
    if districts < 1:
        parser.error("--districts must be >= 1")
    if not args.pw_run.exists():
        parser.error(f"pw_run not found at {args.pw_run} (build it first)")

    flags = list(forwarded) + [f"--districts={districts}"]
    if args.smoke:
        flags.append("--smoke")
    if "--district" in " ".join(forwarded):
        parser.error("--district is per-child; use --districts")

    print(f"pw_city: {districts} districts across "
          f"{min(args.processes, districts)} processes")

    with tempfile.TemporaryDirectory(prefix="pw_city.") as scratch:
        out_dir = args.keep_dir if args.keep_dir else pathlib.Path(scratch)
        out_dir.mkdir(parents=True, exist_ok=True)
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, args.processes))
        jobs = [pool.submit(run_district, args.pw_run, k, out_dir, flags,
                            args.metrics is not None)
                for k in range(districts)]
        ok = all(job.result() for job in jobs)
        pool.shutdown()
        if not ok:
            return 1

        reduce_cmd = [str(args.pw_run), f"--city-reduce={out_dir}"]
        if args.json is not None:
            reduce_cmd.append(f"--json={args.json}")
        if args.metrics is not None:
            reduce_cmd.append(f"--metrics={args.metrics}")
        return subprocess.run(reduce_cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
