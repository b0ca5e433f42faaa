"""The ``verify`` subcommand: run the verification catalog, or the named
checks, on one system."""

import time

from . import checks
from .rootsystem import build


def run(args):
    ids = checks.selected_ids(args.check)   # refuse an unknown id before the build
    rs = build(args.system)
    started = time.perf_counter()
    results = []
    for cid in ids:
        check_started = time.perf_counter()
        status, details = checks.run_check(cid, rs)
        result = {"id": cid, "status": status, "details": details}
        if args.timings:
            result["elapsed_seconds"] = round(time.perf_counter() - check_started, 3)
        results.append(result)
    elapsed = time.perf_counter() - started
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r["status"]] += 1
    payload = {"system": rs.spec, "checks": results, "summary": counts}
    if args.timings:
        payload["elapsed_seconds"] = round(elapsed, 3)
    lines = []
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r["status"]]
        extra = ""
        if r["status"] == "skipped":
            extra = "  (" + r["details"].get("reason", "") + ")"
        elif r["status"] == "fail":
            from .jsonout import dumps

            extra = "  " + dumps(r["details"])   # details are JSON values
        if args.timings:
            extra += f"  {r['elapsed_seconds']:.3f}s"
        lines.append(f"{mark} {r['id']}{extra}")
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    if args.timings:
        lines.append(f"elapsed {elapsed:.3f}s")
    return payload, lines, 1 if counts["fail"] else 0
