"""Paley graphs: construction, regularity check, clique search, graph6 IO.

A Paley graph is a circulant whose connection set (the squares mod p) is a
multiplicative subgroup, so `max_clique` only searches the common
neighbourhood of the edge {0, 1}; p = 241 takes milliseconds.

Run:  python3 demos/demo_paley.py
"""

from srgbounds import SrgParams, full_report, max_clique
from srgbounds.graphio import parse_graph6, write_graph6
from srgbounds.graphs import is_strongly_regular, paley

for p in (5, 13, 17, 29, 37, 41, 101, 197, 241):
    g = paley(p)
    srg = is_strongly_regular(g)
    omega = max_clique(g).size
    rep = full_report(SrgParams(srg.v, srg.k, srg.lam, srg.mu))
    marker = "  <- bound attained" if omega == rep.cab else ""
    print(f"paley({p:>3}): ({srg.v},{srg.k},{srg.lam},{srg.mu})  "
          f"omega = {omega}  cab = {rep.cab}  delsarte = {rep.delsarte}{marker}")

# round-trip the smallest one through graph6, and the largest through its
# long form (n >= 63: "~" and n in three 6-bit groups)
g5 = paley(5)
encoded = write_graph6(g5)
assert parse_graph6(encoded) == g5
print(f"\npaley(5) in graph6: {encoded}")

g241 = paley(241)
long_form = write_graph6(g241)
assert parse_graph6(long_form) == g241
print(f"paley(241) in graph6: {long_form[:4]!r} header + {len(long_form) - 4} bytes, "
      f"round trip ok")
