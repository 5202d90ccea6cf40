"""Enumerate feasible parameter tuples and reproduce the v <= 150 gap table.

The scan lists every feasible tuple on at most 150 vertices for which the
clique adjacency bound is strictly below the Delsarte bound, together with
curated existence/sharpness notes.

Run:  python3 demos/demo_catalog_scan.py
"""

from srgbounds.catalog import CURATED_NOTES, ScanConfig, emit, scan_compare

records, scan_stats = scan_compare(ScanConfig(v_max=150, filter="gap"))
stats = scan_stats()  # the counters cover every feasible tuple, not only the rows kept
print(emit(records, "table"))

print(f"feasible tuples scanned:   {stats.total}")
print(f"conference tuples:         {stats.type1_total} "
      f"({stats.type1_thm21} pass the improvement predicate, "
      f"{stats.thm21_fraction:.1%})")
print(f"integer-eigenvalue tuples: {stats.type2_total} "
      f"({stats.type2_thm22} pass the improvement predicate, "
      f"{stats.thm22_fraction:.1%})")
print(f"complementary pairs covered by the predicate: "
      f"{stats.pairs_type2_thm}/{stats.pairs_type2_total} "
      f"({stats.pair_fraction:.1%})")

for r in records:
    p = r.params
    notes = CURATED_NOTES.get((p.v, p.k, p.lam, p.mu))
    if notes:
        print(f"  ({p.v},{p.k},{p.lam},{p.mu}): exists {notes['exists']}, "
              f"bound sharp {notes['sharp']}")
