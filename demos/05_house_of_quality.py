"""House of quality: from customer dimensions to technical priorities.

First a minimal two-by-two house computed by hand, then the bundled
20-characteristic example for the XYZ shop, where repair-work quality
tops the ranking and equipment appearance lands last.
"""

from satmetric import build_hoq, roof_conflicts
from satmetric.xyz import load_xyz_hoq

toy = build_hoq({
    "customer_reqs": [
        {"id": "speed", "name": "Fast service", "importance": 40},
        {"id": "quality", "name": "Good repairs", "importance": 60},
    ],
    "tech_reqs": [
        {"id": "staffing", "name": "More technicians"},
        {"id": "training", "name": "Technician training"},
    ],
    "relationships": [[9, 3], [1, 9]],
})
print("toy example (importances 40/60, strengths [[9,3],[1,9]]):")
for w in toy.importances:
    print(f"  {w.tech_id:10s} absolute {w.absolute:6.1f}  relative {w.relative_pct:7.3f}%  "
          f"rank {w.rank}")

hoq = load_xyz_hoq()
names = {t.id: t.name for t in hoq.tech_reqs}
print(f"\nXYZ example: {len(hoq.customer_reqs)} customer requirements x "
      f"{len(hoq.tech_reqs)} technical characteristics")
print(f"\n{'rank':4s} {'absolute':>9s} {'rel %':>7s}  characteristic")
for w in sorted(hoq.importances, key=lambda t: t.rank):
    print(f"{w.rank:4d} {w.absolute:9.2f} {w.relative_pct:7.3f}  {names[w.tech_id]}")

print("\nnegatively correlated pairs (trade-offs to watch):")
for a, b in roof_conflicts(hoq):
    print(f"  {names[a]}  <->  {names[b]}")
