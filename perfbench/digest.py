"""Records digest: what two commits' outputs must agree on.

Keys, flags, counts and which values are inf/nan must match exactly; floats
must match to a relative 1e-10.  Pure Python, so digests can be compared
without the package installed (see compare_digests.py).
"""

from __future__ import annotations

import hashlib
import json
import math

#: Recomputed values from the same inputs must agree this closely.
REPLAY_RTOL = 1e-10
FLOAT_FIELDS = ("j_orig", "j_adv", "max_u_orig", "max_u_adv", "l1_orig",
                "l1_adv", "norm_used")


def close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def canonical_records(stats) -> list:
    """Records sorted by key, as [series_id, delta, scenario, flags, floats...]."""
    ordered = sorted(stats.records, key=lambda r: (r.series_id, r.delta, r.scenario))
    return [[r.series_id, r.delta, r.scenario, r.flags]
            + [getattr(r, f) for f in FLOAT_FIELDS] for r in ordered]


def exact_digest(records: list) -> str:
    """Hash of what must match exactly: keys, flags, and which values are inf/nan."""
    h = hashlib.sha256()
    for row in records:
        kinds = "".join("i" if math.isinf(v) else "n" if math.isnan(v) else "f"
                        for v in row[4:])
        h.update(f"{row[0]}|{row[1]!r}|{row[2]}|{row[3]}|{kinds}\n".encode())
    return h.hexdigest()


def write_digest(path, workload: str, seed: int, rep: int, stats) -> str:
    """Write the records digest of one experiment; returns a one-line summary.

    The summary is the exact hash plus the sum of all finite floats, which
    tells runs on different inputs apart at a glance.
    """
    records = canonical_records(stats)
    digest = exact_digest(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "rep": rep,
                   "exact_sha256": digest, "float_fields": list(FLOAT_FIELDS),
                   "records": records}, handle)
        handle.write("\n")
    float_sum = math.fsum(v for row in records for v in row[4:] if math.isfinite(v))
    return f"exact {digest[:16]} float-sum {float_sum!r}"


def compare_digests(a: dict, b: dict) -> list:
    """Differences between two digests: flags and counts exactly, floats to 1e-10."""
    problems = []
    if a["exact_sha256"] != b["exact_sha256"] or len(a["records"]) != len(b["records"]):
        problems.append("keys, flags or inf/nan pattern differ "
                        f"({len(a['records'])} vs {len(b['records'])} records)")
        return problems
    for ra, rb in zip(a["records"], b["records"]):
        for name, va, vb in zip(FLOAT_FIELDS, ra[4:], rb[4:]):
            if not close(va, vb, REPLAY_RTOL):
                problems.append(f"{ra[0]} delta={ra[1]} {ra[2]} {name}: {va!r} vs {vb!r}")
    return problems
