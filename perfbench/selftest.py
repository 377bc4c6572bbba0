"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Checks, and exits non-zero when any fails:

* every workload, untraced and traced, exits 0 and emits every metric
  that ``BENCHMARK.json`` names, with its unit;
* the output audit flags a tampered response (a changed
  ``expected_benefit``) and passes the untampered one;
* no server process is left running after a run;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the benchmark fails without printing a result.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from audit import audit_serving  # noqa: E402
from server_proc import pid_alive  # noqa: E402

def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _stray_servers() -> List[int]:
    """Live ``repro serve`` processes started from this checkout."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
            cwd = os.readlink(f"/proc/{entry}/cwd")
        except OSError:
            continue
        if b"repro" in cmdline and b"serve" in cmdline and cwd == str(ROOT):
            if pid_alive(int(entry)):
                found.append(int(entry))
    return found


def _report(label: str, failures: List[str], before: int) -> None:
    print(f"{'ok  ' if len(failures) == before else 'FAIL'} {label}", flush=True)


def check_metrics(failures: List[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(failures)
            done = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(
                    f"{label}: exit {done.returncode}\n{done.stdout[-1500:]}"
                    f"\n{done.stderr[-1500:]}"
                )
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append(f"{label}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    failures.append(
                        f"{label}: {metric['name']} unit {got.get('unit')!r}"
                        f" != {metric['unit']!r}"
                    )
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{label}: unlisted metrics {sorted(extra)}")
            record = json.loads(
                (
                    HERE / "out"
                    / f"result-{workload}-seed0-trace{trace}.json"
                ).read_text()
            )
            alive = [
                pid for pid in record["provenance"].get("server_pids", [])
                if pid_alive(pid)
            ]
            if alive or _stray_servers():
                failures.append(f"{label}: server left running {alive}")
            _report(label, failures, before)


async def _answers(requests):
    from repro.service import ODMService

    async with ODMService(workers=1) as service:
        return [await service.submit(r) for r in requests]


def check_tampered_audit(failures: List[str]) -> None:
    from workloads import SERVING, make_traffic

    before = len(failures)
    traffic = make_traffic(SERVING["admit-hot"], 0, 0.2, 1)
    requests = [request for _, request in traffic.open_rounds[0]][:20]
    responses = asyncio.run(_answers(requests))
    pairs = list(zip(requests, responses))
    clean = audit_serving(pairs, sample_seed=0, reference_sample=4)
    if not clean.ok:
        failures.append(f"untampered responses flagged: {clean.anomalies}")
    victim = next(i for i, (_, r) in enumerate(pairs) if r.admitted)
    request, response = pairs[victim]
    pairs[victim] = (
        request,
        replace(response, expected_benefit=response.expected_benefit + 0.5),
    )
    tampered = audit_serving(pairs, sample_seed=0, reference_sample=0)
    if tampered.ok:
        failures.append("audit passed a tampered expected_benefit")
    _report("audit flags a tampered response", failures, before)


def check_bare_directory(failures: List[str]) -> None:
    before = len(failures)
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run(bare, "admit-hot", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append("benchmark ran without the program source")
    _report("fails without the program source", failures, before)


def main() -> int:
    failures: List[str] = []
    check_tampered_audit(failures)
    check_bare_directory(failures)
    check_metrics(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
