"""Shape statistics for large finite clusters.

Every qualifying cluster is re-centered at its mass center and rescaled to
unit volume; averaging the occupancies gives an empirical candidate for
the typical droplet shape.  The symmetric-difference statistic then
measures how far the observed clusters sit from translates of any given
candidate shape.
"""
import numpy as np

from fkpoisson import Box
from fkpoisson.census import label_clusters, point_process
from fkpoisson.fk import BondConfig
from fkpoisson.wulff import (empirical_shape, square_shape,
                             symmetric_difference_stat)

rng = np.random.default_rng(2)
box = Box.cube(2, 40)
n = 4
sets = []
for _ in range(900):
    state = (rng.random(box.n_bonds) < 0.7).astype(np.uint8)
    sets.append(label_clusters(BondConfig(box, state)))

mask = empirical_shape(sets, n, cells_per_unit=8, min_count=30)
print(f"empirical droplet shape from n>={n} clusters: "
      f"volume {mask.volume:.3f} on a 1/8 raster")
g = mask.grid.astype(int)
for row in g[::2]:
    print("   ", "".join(".#"[v] for v in row[::2]))

diag_rows = []
shape = square_shape(1.0, 16)
width = 2  # ceil(ln^2 n)
for cs in sets[:200]:
    pf = point_process(cs, n)
    quals = [c for c in cs.clusters
             if not c.touches_boundary and c.size >= n]
    if pf.count() == 0:
        continue
    diag = symmetric_difference_stat(pf, quals, shape, n, width, delta=1.0)
    diag_rows.append(diag.volume / diag.center_count)
print(f"\nunit-square candidate, fattening width {width}:")
print(f"mean symmetric-difference volume per center: "
      f"{np.mean(diag_rows):.3f} over {len(diag_rows)} samples")
print("(smaller is better; the droplet event fires when this exceeds delta)")
